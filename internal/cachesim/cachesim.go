// Package cachesim models the paper's aggressive non-blocking cache
// hierarchy (Table 1): a 16 KiB 2-way write-through L1 data cache and a
// 1 MiB 2-way write-back L2, each with 8 MSHRs, connected by an 8-byte
// split-transaction bus.
//
// The interface is the interval protocol of §4.1: when the µ-architecture
// issues a load it immediately receives the shortest interval (in cycles)
// before the data could become available, considering all loads and stores
// already executing. After waiting, it polls again and either learns the
// data is ready or receives a new interval (e.g. an L1 miss first returns
// the usual 6-cycle delay and only the next call reveals the additional L2
// miss penalty). No program data flows through this interface — only time.
//
// A load is named by its absolute lQ index, the µ-architecture's own name
// for it. In-flight loads live in a fixed table indexed by the index's low
// bits; its 256 slots come from the ActiveList bound (uarch caps it at 255),
// since loads in flight hold consecutive indices inside the active list.
// Access is the blocking form, for timing models that wait for each load.
//
// The cache simulator is deliberately *not* memoized (§4.1): its internal
// state (tags, dirtiness, MSHR and bus occupancy) is external to the
// µ-architecture configuration, and the intervals it returns label edges in
// the p-action cache.
package cachesim

import (
	"fmt"
	"math/bits"

	"fastsim/internal/obs"
	"fastsim/internal/stats"
)

// Config holds the hierarchy's geometry and latencies.
type Config struct {
	L1Size  int // bytes
	L1Assoc int
	L2Size  int // bytes
	L2Assoc int
	Line    int // line size in bytes, both levels
	MSHRs   int // per level

	L1HitLat   int // cycles from issue to data on an L1 hit
	L1MissLat  int // cycles to detect the L1 miss and look up L2
	L2HitExtra int // additional cycles to return data on an L2 hit
	MemLat     int // memory access latency after winning the bus
	BusBeats   int // bus beats to transfer one line (line/8 for an 8-byte bus)
}

// DefaultConfig returns the paper's Table 1 parameters.
func DefaultConfig() Config {
	return Config{
		L1Size:  16 << 10,
		L1Assoc: 2,
		L2Size:  1 << 20,
		L2Assoc: 2,
		Line:    32,
		MSHRs:   8,

		L1HitLat:   2,
		L1MissLat:  6, // the paper's "usually a 6 cycle delay"
		L2HitExtra: 4,
		MemLat:     40,
		BusBeats:   4, // 32-byte line over an 8-byte bus
	}
}

// Stats counts cache activity.
type Stats struct {
	Loads      uint64
	L1Hits     uint64
	L1Misses   uint64
	L2Hits     uint64
	L2Misses   uint64
	Stores     uint64
	StoreL2Hit uint64
	Writebacks uint64
	Cancels    uint64

	// LoadLatency is the distribution of completed loads' total latency
	// in cycles (issue to data).
	LoadLatency stats.Histogram
}

// RegisterMetrics publishes the hierarchy's counters and the load-latency
// histogram into the observability registry.
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	r.Counter(obs.MetricCacheLoads, &c.stats.Loads)
	r.Counter(obs.MetricL1Hits, &c.stats.L1Hits)
	r.Counter(obs.MetricL1Misses, &c.stats.L1Misses)
	r.Counter(obs.MetricL2Hits, &c.stats.L2Hits)
	r.Counter(obs.MetricL2Misses, &c.stats.L2Misses)
	r.Counter(obs.MetricCacheStores, &c.stats.Stores)
	r.Counter(obs.MetricCacheWritebacks, &c.stats.Writebacks)
	r.Histogram(obs.MetricLoadLatency, &c.stats.LoadLatency)
}

type way struct {
	tag   uint32
	valid bool
	dirty bool
}

// level is one set-associative cache level with MSHR occupancy tracking.
type level struct {
	ways      []way // sets×assoc; set s is ways[s*assoc:][:assoc], position 0 MRU
	assoc     int
	setShift  uint // line offset bits
	tagShift  uint // line offset and set index bits
	setMask   uint32
	mshrFree  []uint64 // earliest cycle each MSHR slot is free
	writeback bool
}

func newLevel(size, assoc, line, mshrs int, writeback bool) *level {
	nSets := size / (assoc * line)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cachesim: set count %d not a power of two", nSets))
	}
	setShift := uint(bits.Len(uint(line)) - 1)
	return &level{
		ways:      make([]way, nSets*assoc),
		assoc:     assoc,
		setShift:  setShift,
		tagShift:  setShift + uint(bits.Len(uint(nSets))-1),
		setMask:   uint32(nSets - 1),
		mshrFree:  make([]uint64, mshrs),
		writeback: writeback,
	}
}

func (l *level) set(addr uint32) []way {
	i := int((addr>>l.setShift)&l.setMask) * l.assoc
	return l.ways[i : i+l.assoc]
}

func (l *level) tag(addr uint32) uint32 { return addr >> l.tagShift }

// lookup probes the level. On a hit the line is moved to MRU.
func (l *level) lookup(addr uint32) bool {
	set := l.set(addr)
	t := l.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			e := set[i]
			copy(set[1:i+1], set[0:i])
			set[0] = e
			return true
		}
	}
	return false
}

// install fills a line, evicting the LRU way. It returns true if the
// eviction wrote back a dirty line.
func (l *level) install(addr uint32, dirty bool) (wroteBack bool) {
	set := l.set(addr)
	t := l.tag(addr)
	// Already present (raced fill): refresh.
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i].dirty = set[i].dirty || dirty
			e := set[i]
			copy(set[1:i+1], set[0:i])
			set[0] = e
			return false
		}
	}
	victim := set[len(set)-1]
	wroteBack = victim.valid && victim.dirty && l.writeback
	copy(set[1:], set[:len(set)-1])
	set[0] = way{tag: t, valid: true, dirty: dirty && l.writeback}
	return wroteBack
}

// markDirty sets the dirty bit on a present line.
func (l *level) markDirty(addr uint32) {
	set := l.set(addr)
	t := l.tag(addr)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i].dirty = true
			return
		}
	}
}

// allocMSHR reserves the earliest-free MSHR slot; the request may not start
// before the returned time. Callers later update the slot's busy horizon
// with setMSHR.
func (l *level) allocMSHR(now uint64) (slot int, startAt uint64) {
	slot = 0
	for i, f := range l.mshrFree {
		if f < l.mshrFree[slot] {
			slot = i
		}
	}
	startAt = now
	if l.mshrFree[slot] > now {
		startAt = l.mshrFree[slot]
	}
	return slot, startAt
}

func (l *level) setMSHR(slot int, busyUntil uint64) { l.mshrFree[slot] = busyUntil }

type reqState uint8

const (
	stIssue   reqState = iota // not yet looked up in L1
	stDone                    // data available at readyAt
	stL2Check                 // waiting for the L1 miss to reach L2
)

// tableSize is the number of in-flight load slots (see the package doc).
const tableSize = 256

type request struct {
	lq      int  // absolute lQ index of the load holding the slot
	live    bool // the slot holds an in-flight load
	addr    uint32
	state   reqState
	start   uint64 // issue cycle (latency accounting)
	readyAt uint64
	l1Slot  int
	fill    bool // install lines when the request completes
	fillL2  bool
}

// RequestError is the panic value of a refused load request: a poll of an
// lQ index with no live request, or an issue into a slot another live index
// holds. The caller's lQ bookkeeping has diverged from the cache's.
type RequestError string

func (e RequestError) Error() string { return string(e) }

// Cache is the two-level hierarchy plus bus.
type Cache struct {
	cfg       Config
	l1, l2    *level
	busFreeAt uint64

	reqs  [tableSize]request // in-flight loads, slot lq&(tableSize-1)
	stats Stats
}

// New builds a hierarchy from cfg (zero fields take defaults).
func New(cfg Config) *Cache {
	d := DefaultConfig()
	if cfg.L1Size == 0 {
		cfg = d
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = d.MSHRs
	}
	return &Cache{
		cfg: cfg,
		l1:  newLevel(cfg.L1Size, cfg.L1Assoc, cfg.Line, cfg.MSHRs, false),
		l2:  newLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line, cfg.MSHRs, true),
	}
}

// LoadRequest begins the access of the load at lQ index lq to addr at
// cycle now and returns the first interval, in cycles, before the data
// could be available. Re-issuing a live index replaces its request.
func (c *Cache) LoadRequest(lq int, addr uint32, now uint64) (delay int) {
	r := &c.reqs[lq&(tableSize-1)]
	if r.live && r.lq != lq {
		panic(RequestError(fmt.Sprintf("issue of load %d into the slot of live load %d", lq, r.lq)))
	}
	*r = request{lq: lq, live: true, addr: addr, start: now}
	_, delay = c.advance(r, now)
	return delay
}

// LoadPoll advances the pending load at lQ index lq at cycle now. It returns
// ready=true when the data is available (the index is then no longer live),
// or ready=false and a further interval to wait.
func (c *Cache) LoadPoll(lq int, now uint64) (ready bool, delay int) {
	r := &c.reqs[lq&(tableSize-1)]
	if !r.live || r.lq != lq {
		panic(RequestError(fmt.Sprintf("poll of load %d with no live request", lq)))
	}
	ready, delay = c.advance(r, now)
	r.live = !ready
	return ready, delay
}

// Access performs a whole load at cycle now, as a blocking cache would,
// and returns its total latency. It holds no request slot.
func (c *Cache) Access(addr uint32, now uint64) (total int) {
	r := request{addr: addr, start: now}
	for {
		ready, d := c.advance(&r, now+uint64(total))
		if ready {
			return total
		}
		total += d
	}
}

// advance moves r on at cycle now: ready when its data is available,
// otherwise the further interval to wait.
func (c *Cache) advance(r *request, now uint64) (ready bool, delay int) {
	if now < r.readyAt {
		return false, int(r.readyAt - now)
	}
	switch r.state {
	case stIssue:
		c.stats.Loads++
		if c.l1.lookup(r.addr) {
			c.stats.L1Hits++
			r.state = stDone
			r.readyAt = now + uint64(c.cfg.L1HitLat)
			return false, c.cfg.L1HitLat
		}
		c.stats.L1Misses++
		slot, startAt := c.l1.allocMSHR(now)
		r.state = stL2Check
		r.l1Slot = slot
		r.readyAt = startAt + uint64(c.cfg.L1MissLat)
		c.l1.setMSHR(slot, r.readyAt)
		return false, int(r.readyAt - now)
	case stDone:
		if r.fill {
			c.finishFill(r)
		}
		c.stats.LoadLatency.Add(r.readyAt - r.start)
		return true, 0
	case stL2Check:
		if c.l2.lookup(r.addr) {
			c.stats.L2Hits++
			r.state = stDone
			r.readyAt = now + uint64(c.cfg.L2HitExtra)
			r.fill = true
			c.l1.setMSHR(r.l1Slot, r.readyAt)
			return false, c.cfg.L2HitExtra
		}
		c.stats.L2Misses++
		slot2, startAt := c.l2.allocMSHR(now)
		if c.busFreeAt > startAt {
			startAt = c.busFreeAt
		}
		done := startAt + uint64(c.cfg.MemLat) + uint64(c.cfg.BusBeats)
		// Split transaction: the bus carries the request at startAt and the
		// line transfer at the end; it is free during the memory access.
		c.busFreeAt = done
		c.l2.setMSHR(slot2, done)
		c.l1.setMSHR(r.l1Slot, done)
		r.state = stDone
		r.readyAt = done
		r.fill = true
		r.fillL2 = true
		return false, int(done - now)
	}
	panic("cachesim: bad request state")
}

func (c *Cache) finishFill(r *request) {
	if r.fillL2 {
		if c.l2.install(r.addr, false) {
			c.stats.Writebacks++
			c.busFreeAt += uint64(c.cfg.BusBeats)
		}
	}
	c.l1.install(r.addr, false)
}

// Cancel abandons the in-flight load at lQ index lq, whose instruction was
// squashed; an index with no live request is ignored. Cache state changes
// already caused by the access (tag movement, bus and MSHR reservations)
// remain, modelling real wrong-path cache pollution.
func (c *Cache) Cancel(lq int) {
	if r := &c.reqs[lq&(tableSize-1)]; r.live && r.lq == lq {
		r.live = false
		c.stats.Cancels++
	}
}

// Outstanding returns the number of in-flight load requests.
func (c *Cache) Outstanding() (n int) {
	for i := range c.reqs {
		if c.reqs[i].live {
			n++
		}
	}
	return n
}

// Store performs a store at cycle now. The L1 is write-through
// (no-write-allocate), so every store also reaches the L2; L2 write misses
// allocate the line. Stores complete into a write buffer, so no interval is
// returned — their cost appears as bus and MSHR pressure seen by loads.
func (c *Cache) Store(addr uint32, now uint64) {
	c.stats.Stores++
	c.l1.lookup(addr) // write-through: update L1 only if present
	if c.l2.lookup(addr) {
		c.stats.StoreL2Hit++
		c.l2.markDirty(addr)
		return
	}
	// Write-allocate in L2: fetch the line over the bus.
	start := now
	if c.busFreeAt > start {
		start = c.busFreeAt
	}
	done := start + uint64(c.cfg.MemLat) + uint64(c.cfg.BusBeats)
	c.busFreeAt = done
	if c.l2.install(addr, true) {
		c.stats.Writebacks++
		c.busFreeAt += uint64(c.cfg.BusBeats)
	}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }
