package codec

import "unsafe"

// Alias returns a string that shares b's bytes instead of copying them: the
// only use of package unsafe outside tests (CI checks that). It is sound as
// long as nobody writes to those bytes while the string, or a substring of it,
// can still be read. The receive path (the engine's decoded tuples) recycles a
// frame only after the callback that could read its strings has returned, and
// whoever keeps one longer copies it; the state tables (statestore.Table)
// append keys to chunks they never rewrite.
func Alias(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
