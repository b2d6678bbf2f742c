package memo

// configTable is the p-action cache's configuration index: a chained hash
// table keyed by the encoded iQ snapshot. A Go map[string]*config pays two
// hash computations on every miss (the failed lookup, then the insert) and
// forces a []byte→string conversion before the insert can even be attempted.
// Here the 64-bit key hash is computed once per getOrCreate over the raw key
// bytes, reused for both the probe and the insert, and the key is interned
// (copied into a string) only when a new configuration is actually created.
//
// Iteration (each) walks buckets in index order and chains in insertion
// order. Both are pure functions of the insertion sequence and the key
// bytes — there is no per-process seed and no Go-map randomization — so
// traversals that reach output stay byte-stable across runs.
type configTable struct {
	buckets []*config
	mask    uint64
	n       int
}

const tableMinBuckets = 64

// newConfigTable returns an empty table sized for at least hint entries.
func newConfigTable(hint int) *configTable {
	nb := tableMinBuckets
	for nb < hint {
		nb <<= 1
	}
	return &configTable{buckets: make([]*config, nb), mask: uint64(nb - 1)}
}

// FNV-1a over the key bytes: the single hash the table design promises,
// for raw keys and interned ones alike.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashKey[K string | []byte](key K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// find probes for key with its precomputed hash. The string(key) conversion
// inside a == comparison is allocation-free.
func find[K string | []byte](t *configTable, key K, h uint64) *config {
	for cf := t.buckets[h&t.mask]; cf != nil; cf = cf.hnext {
		if cf.hash == h && cf.key == string(key) {
			return cf
		}
	}
	return nil
}

// insert links cf (cf.hash must be set) into its bucket. The caller
// guarantees the key is not already present.
func (t *configTable) insert(cf *config) {
	if t.n >= len(t.buckets)*2 {
		t.grow()
	}
	b := cf.hash & t.mask
	cf.hnext = t.buckets[b]
	t.buckets[b] = cf
	t.n++
}

func (t *configTable) grow() {
	nb := make([]*config, len(t.buckets)*2)
	mask := uint64(len(nb) - 1)
	for _, head := range t.buckets {
		for cf := head; cf != nil; {
			next := cf.hnext
			b := cf.hash & mask
			cf.hnext = nb[b]
			nb[b] = cf
			cf = next
		}
	}
	t.buckets, t.mask = nb, mask
}

// each calls f for every configuration, in bucket order.
func (t *configTable) each(f func(*config)) {
	for _, head := range t.buckets {
		for cf := head; cf != nil; cf = cf.hnext {
			f(cf)
		}
	}
}
