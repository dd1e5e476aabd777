package htm

import "math/bits"

// table is the open-addressed uint64 → uint64 map behind a transaction's
// read set, write set and write buffer (the sets leave val unused). It
// exists because those are rebuilt for every transaction and consulted
// on every transactional access: clearing is O(1) — a slot is live only
// while its stamp equals the table's epoch — and lookups hash with one
// multiply. live lists the occupied slots in insertion order, so Commit
// applies the buffer in program order and Snapshot copies only what a
// transaction holds.
//
// A doomed transaction keeps executing until its doom is observed, so a
// set can pass any architectural capacity: the table grows by doubling
// and never drops an entry.
type table struct {
	slots []slot   // len is zero or a power of two, at most half full
	live  []uint32 // indices into slots, in insertion order
	epoch uint32   // never zero once slots exist
	shift uint8    // 64 - log2(len(slots))
}

type slot struct {
	key, val uint64
	epoch    uint32 // zero: never used
}

// entry is one key/value pair outside a table (snapshots).
type entry struct{ key, val uint64 }

const tableMinSlots = 64

func (t *table) len() int { return len(t.live) }

// reset empties the table. When the epoch wraps, stamps of 2^32 resets
// ago would read as live again, so they are wiped.
func (t *table) reset() {
	t.live = t.live[:0]
	if t.epoch++; t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// find returns the slot holding key, or the empty slot where it belongs.
// The table must have slots.
func (t *table) find(key uint64) (i uint32, ok bool) {
	mask := uint32(len(t.slots) - 1)
	for i = uint32(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

func (t *table) get(key uint64) (val uint64, ok bool) {
	if len(t.live) == 0 {
		return 0, false
	}
	i, ok := t.find(key)
	if !ok {
		return 0, false
	}
	return t.slots[i].val, true
}

func (t *table) has(key uint64) bool {
	_, ok := t.get(key)
	return ok
}

// put sets key to val and reports whether key is new.
func (t *table) put(key, val uint64) (added bool) {
	if 2*len(t.live) >= len(t.slots) {
		t.grow()
	}
	i, ok := t.find(key)
	if ok {
		t.slots[i].val = val
		return false
	}
	t.slots[i] = slot{key, val, t.epoch}
	t.live = append(t.live, i)
	return true
}

// grow doubles the slots, re-inserting the live entries in their order.
func (t *table) grow() {
	old, live := t.slots, t.live
	n := max(2*len(old), tableMinSlots)
	t.slots, t.live, t.epoch = make([]slot, n), make([]uint32, 0, n/2), 1
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, i := range live {
		j, _ := t.find(old[i].key)
		t.slots[j] = slot{old[i].key, old[i].val, 1}
		t.live = append(t.live, j)
	}
}

// entries appends the live entries to dst in insertion order.
func (t *table) entries(dst []entry) []entry {
	for _, i := range t.live {
		dst = append(dst, entry{t.slots[i].key, t.slots[i].val})
	}
	return dst
}

// keys appends the live keys to dst in insertion order.
func (t *table) keys(dst []uint64) []uint64 {
	for _, i := range t.live {
		dst = append(dst, t.slots[i].key)
	}
	return dst
}

// load makes the table hold exactly es, inserted in that order.
func (t *table) load(es []entry) {
	t.reset()
	for _, e := range es {
		t.put(e.key, e.val)
	}
}

// loadKeys makes the table hold exactly the keys ks, inserted in that
// order (the read and write sets).
func (t *table) loadKeys(ks []uint64) {
	t.reset()
	for _, k := range ks {
		t.put(k, 0)
	}
}

// equal reports whether the table holds exactly es as a set: the order
// of insertion is not state a transaction's behaviour depends on.
func (t *table) equal(es []entry) bool {
	if len(es) != len(t.live) {
		return false
	}
	for _, e := range es {
		if v, ok := t.get(e.key); !ok || v != e.val {
			return false
		}
	}
	return true
}

// equalKeys reports whether the keys of the table are exactly ks, as a
// set (the read and write sets, which leave val unused).
func (t *table) equalKeys(ks []uint64) bool {
	if len(ks) != len(t.live) {
		return false
	}
	for _, k := range ks {
		if !t.has(k) {
			return false
		}
	}
	return true
}
