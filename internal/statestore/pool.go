package statestore

// Pool recycles States within one goroutine: a wiped state goes back to the
// pool with all its arenas — symbol table, per-symbol arrays, table backing
// storage — intact, and the next state taken from it reuses them. Not
// goroutine-safe by design.
type Pool struct {
	free []*State
	// cap bounds the number of retained states (0 = unbounded).
	cap int
}

// NewPool returns a pool retaining at most capacity states (0 = unbounded).
func NewPool(capacity int) *Pool { return &Pool{cap: capacity} }

// Get returns an empty state, recycled when one is available.
func (p *Pool) Get() *State {
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return st
	}
	return NewState()
}

// Put recycles st (Reset is applied here). nil is ignored.
func (p *Pool) Put(st *State) {
	if st == nil || (p.cap > 0 && len(p.free) >= p.cap) {
		return
	}
	st.Reset()
	p.free = append(p.free, st)
}

// Len returns the number of idle states held.
func (p *Pool) Len() int { return len(p.free) }
