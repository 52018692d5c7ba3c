package eg

// RenameThreads returns a copy of g with thread indices permuted: the
// events of thread t become the events of thread perm[t], and every
// thread reference — event IDs, dependency edges, rf, co — is renamed
// consistently (init events, thread −1, are fixed). Stamps are preserved.
//
// Renaming is only meaningful when the permuted threads run identical
// code; symmetry reduction computes its canonical state key as the
// minimum Key() over such renamings.
func (g *Graph) RenameThreads(perm []int) *Graph {
	ren := func(id EvID) EvID {
		if id.T < 0 {
			return id
		}
		return EvID{T: perm[id.T], I: id.I}
	}
	renAll := func(ids []EvID) []EvID {
		if len(ids) == 0 {
			return nil
		}
		out := make([]EvID, len(ids))
		for i, id := range ids {
			out[i] = ren(id)
		}
		return out
	}
	c := newOwned(len(g.threads), g.numLocs)
	c.next = g.next
	for t, th := range g.threads {
		nth := make([]Event, len(th))
		for i, ev := range th {
			ev.ID = ren(ev.ID)
			ev.Addr = renAll(ev.Addr)
			ev.Data = renAll(ev.Data)
			ev.Ctrl = renAll(ev.Ctrl)
			nth[i] = ev
		}
		c.threads[perm[t]] = nth
		slots := make([]EvID, len(th))
		for i, w := range g.rf[t] {
			slots[i] = ren(w)
		}
		c.rf[perm[t]] = slots
	}
	for l, ws := range g.co {
		c.co[l] = renAll(ws)
	}
	return c
}
