package core

import "slices"

// tsSet is a set of one client's timestamps, held as sorted, disjoint,
// non-adjacent closed ranges. A client numbers its requests consecutively,
// so the timestamps a replica has executed form one range plus a few more
// while requests are in flight; a timestamp a client skips and never fills
// costs one range. Membership is exact — the set answers "was this executed?"
// the same way at every replica, however differently they fill it.
type tsSet []tsRange

type tsRange struct{ lo, hi uint64 }

// find returns the index of the first range ending at or above ts and
// whether that range contains ts.
func (s tsSet) find(ts uint64) (int, bool) {
	i, _ := slices.BinarySearchFunc(s, ts, func(r tsRange, ts uint64) int {
		if r.hi < ts {
			return -1
		}
		return 1 // first range with hi >= ts
	})
	return i, i < len(s) && s[i].lo <= ts
}

func (s tsSet) has(ts uint64) bool {
	_, ok := s.find(ts)
	return ok
}

// add inserts ts, extending or joining the ranges beside it.
func (s *tsSet) add(ts uint64) {
	i, ok := s.find(ts)
	if ok {
		return
	}
	set := *s
	joinsPrev := i > 0 && set[i-1].hi+1 == ts
	joinsNext := i < len(set) && ts+1 == set[i].lo
	switch {
	case joinsPrev && joinsNext:
		set[i-1].hi = set[i].hi
		*s = slices.Delete(set, i, i+1)
	case joinsPrev:
		set[i-1].hi = ts
	case joinsNext:
		set[i].lo = ts
	default:
		*s = slices.Insert(set, i, tsRange{ts, ts})
	}
}
