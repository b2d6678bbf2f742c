// Package snapshot persists the p-action cache across runs: a versioned
// binary serialization of the memo engine's state — interned configuration
// keys, the configuration table, the action chains, and the Stats counters
// — with a magic/version/flags header, a content checksum per section, and
// crash-safe atomic file writes (temp file + fsync + rename).
//
// Robustness is first-class: a truncated, bit-flipped or version-skewed
// snapshot is detected by checksum or version and reported with a typed
// sentinel (ErrCorrupt, ErrVersion, ErrMismatch), never a panic. The core
// layer turns every such error into a cold-cache warm-start fallback with a
// structured warning, so a bad snapshot can cost speed but never
// correctness. See docs/SNAPSHOTS.md for the format layout and the
// versioning rules.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"fastsim/internal/memo"
	"fastsim/internal/stats"
)

// Typed sentinel errors, matched with errors.Is. The facade re-exports
// ErrVersion and ErrCorrupt as fastsim.ErrSnapshotVersion and
// fastsim.ErrSnapshotCorrupt.
var (
	// ErrCorrupt reports a snapshot whose bytes fail structural or
	// checksum validation: truncation, bit flips, malformed encodings.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion reports a well-formed snapshot written by an incompatible
	// format version.
	ErrVersion = errors.New("snapshot: version mismatch")
	// ErrMismatch reports a valid snapshot taken from a different program
	// or processor configuration (fingerprint mismatch); replaying it
	// would be silently wrong, so it is never loaded.
	ErrMismatch = errors.New("snapshot: fingerprint mismatch")
)

// Version is the current format version. Bump it on any change to the
// header, section framing, section payload encodings, or the meaning of the
// Stats field sequence; readers reject every other version (no migration —
// a rejected snapshot is simply rebuilt by the next cold run).
//
// v2 added a per-configuration use slot to the configs section. Nothing
// reads it any more: Encode writes 0 and Decode range-checks and discards
// it, so every v2 file, whatever its slot values, still loads.
const Version = 2

// magic identifies a FastSim p-action snapshot file.
var magic = [8]byte{'F', 'S', 'I', 'M', 'S', 'N', 'A', 'P'}

// Section ids. Sections must appear in this order.
const (
	secConfigs = 1 // interned configuration keys + chain heads
	secActions = 2 // flattened action nodes
	secStats   = 3 // memo.Stats counters
)

// headerLen is magic[8] + version u32 + flags u32 + fingerprint u64 +
// nsections u32 + reserved u32 + headerSum u64.
const headerLen = 8 + 4 + 4 + 8 + 4 + 4 + 8

// sectionHdrLen is id u32 + payload length u64 + payload checksum u64.
const sectionHdrLen = 4 + 8 + 8

// Image is the deserialized content of a snapshot file.
type Image struct {
	// Fingerprint identifies the (program, processor model) pair the
	// cache was built under; see core's snapshot wiring.
	Fingerprint uint64
	// Graph is the flattened p-action cache.
	Graph memo.Graph
}

// fnv1a is the checksum used for section payloads and the header: FNV-1a
// 64, the hash of the memo config table.
func fnv1a(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data) //nolint:errcheck // fnv.Write never fails
	return h.Sum64()
}

// Encode serializes img. The output is deterministic: the same Image
// always produces the same bytes.
func Encode(img *Image) []byte {
	configs := encodeConfigs(&img.Graph)
	actions := encodeActions(&img.Graph)
	statsPayload := encodeStats(&img.Graph.Stats)

	total := headerLen + 3*sectionHdrLen + len(configs) + len(actions) + len(statsPayload)
	out := make([]byte, 0, total)

	// Header; the trailing checksum covers everything before it.
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, 0) // flags
	out = binary.LittleEndian.AppendUint64(out, img.Fingerprint)
	out = binary.LittleEndian.AppendUint32(out, 3) // sections
	out = binary.LittleEndian.AppendUint32(out, 0) // reserved
	out = binary.LittleEndian.AppendUint64(out, fnv1a(out))

	appendSection := func(id uint32, payload []byte) {
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = binary.LittleEndian.AppendUint64(out, fnv1a(payload))
		out = append(out, payload...)
	}
	appendSection(secConfigs, configs)
	appendSection(secActions, actions)
	appendSection(secStats, statsPayload)
	return out
}

// Decode parses data into an Image. wantFingerprint guards against loading
// a cache recorded under a different program or processor model; pass the
// value computed for the current run.
func Decode(data []byte, wantFingerprint uint64) (*Image, error) {
	return decode(data, &wantFingerprint)
}

// DecodeAny parses data into an Image without the fingerprint guard — the
// offline-inspection read path (cmd/fsinspect), which examines snapshots
// away from the program and config that produced them. Every integrity
// check (magic, version, header and section checksums, structural
// validation) still applies; only the identity comparison is skipped. Never
// feed a DecodeAny image into a live cache.
func DecodeAny(data []byte) (*Image, error) {
	return decode(data, nil)
}

func decode(data []byte, wantFingerprint *uint64) (*Image, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the %d-byte header", ErrCorrupt, len(data), headerLen)
	}
	hdr := data[:headerLen]
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:8])
	}
	if sum := binary.LittleEndian.Uint64(hdr[headerLen-8:]); sum != fnv1a(hdr[:headerLen-8]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	fingerprint := binary.LittleEndian.Uint64(hdr[16:])
	if wantFingerprint != nil && fingerprint != *wantFingerprint {
		return nil, fmt.Errorf("%w: snapshot was taken for fingerprint %#x, this run is %#x",
			ErrMismatch, fingerprint, *wantFingerprint)
	}
	nsec := binary.LittleEndian.Uint32(hdr[24:])
	if nsec != 3 {
		return nil, fmt.Errorf("%w: %d sections, want 3", ErrCorrupt, nsec)
	}

	img := &Image{Fingerprint: fingerprint}
	rest := data[headerLen:]
	for _, want := range []uint32{secConfigs, secActions, secStats} {
		if len(rest) < sectionHdrLen {
			return nil, fmt.Errorf("%w: truncated before section %d header", ErrCorrupt, want)
		}
		id := binary.LittleEndian.Uint32(rest)
		n := binary.LittleEndian.Uint64(rest[4:])
		sum := binary.LittleEndian.Uint64(rest[12:])
		rest = rest[sectionHdrLen:]
		if id != want {
			return nil, fmt.Errorf("%w: section id %d, want %d", ErrCorrupt, id, want)
		}
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section %d claims %d bytes, %d remain", ErrCorrupt, id, n, len(rest))
		}
		payload := rest[:n]
		rest = rest[n:]
		if fnv1a(payload) != sum {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		var err error
		switch id {
		case secConfigs:
			err = decodeConfigs(payload, &img.Graph)
		case secActions:
			err = decodeActions(payload, &img.Graph)
		case secStats:
			err = decodeStats(payload, &img.Graph.Stats)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrCorrupt, len(rest))
	}
	// Cross-section validation beyond what ImportGraph re-checks: chain
	// heads must reference the actions section.
	for i, first := range img.Graph.First {
		if first < -1 || first >= int64(len(img.Graph.Actions)) {
			return nil, fmt.Errorf("%w: config %d chain head %d out of range", ErrCorrupt, i, first)
		}
	}
	return img, nil
}

// --- payload encodings: uvarint/zigzag over little-endian framing ---

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// reader consumes varints with sticky error handling so decode loops stay
// readable; err is ErrCorrupt-wrapped by the callers.
type reader struct {
	data []byte
	bad  bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bytes(n uint64) []byte {
	if uint64(len(r.data)) < n {
		r.bad = true
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *reader) byteVal() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func encodeConfigs(g *memo.Graph) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(g.Keys)))
	for i, key := range g.Keys {
		out = binary.AppendUvarint(out, uint64(len(key)))
		out = append(out, key...)
		out = appendZigzag(out, g.First[i])
		out = binary.AppendUvarint(out, 0) // v2 use slot, unused
	}
	return out
}

func decodeConfigs(payload []byte, g *memo.Graph) error {
	r := reader{data: payload}
	n := r.uvarint()
	if r.bad || n > uint64(len(payload)) {
		return fmt.Errorf("%w: implausible config count %d", ErrCorrupt, n)
	}
	g.Keys = make([]string, 0, n)
	g.First = make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		kl := r.uvarint()
		key := r.bytes(kl)
		first := r.zigzag()
		uses := r.uvarint() // v2 use slot: range-checked, then ignored
		if r.bad || uses > uint64(^uint32(0)) {
			return fmt.Errorf("%w: truncated config %d", ErrCorrupt, i)
		}
		g.Keys = append(g.Keys, string(key))
		g.First = append(g.First, first)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in configs section", ErrCorrupt, len(r.data))
	}
	return nil
}

func encodeActions(g *memo.Graph) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(g.Actions)))
	for i := range g.Actions {
		a := &g.Actions[i]
		out = append(out, a.Kind)
		out = appendZigzag(out, int64(a.Rel))
		out = binary.AppendUvarint(out, uint64(a.Cycles))
		out = appendZigzag(out, int64(a.Insts))
		out = appendZigzag(out, int64(a.Loads))
		out = appendZigzag(out, int64(a.Stores))
		out = appendZigzag(out, int64(a.Recs))
		out = appendZigzag(out, a.Next)
		out = appendZigzag(out, a.NextCfg)
		out = binary.AppendUvarint(out, uint64(len(a.Labels)))
		for k, l := range a.Labels {
			out = appendZigzag(out, l)
			out = appendZigzag(out, a.Targets[k])
		}
	}
	return out
}

func decodeActions(payload []byte, g *memo.Graph) error {
	r := reader{data: payload}
	n := r.uvarint()
	if r.bad || n > uint64(len(payload)) {
		return fmt.Errorf("%w: implausible action count %d", ErrCorrupt, n)
	}
	g.Actions = make([]memo.GraphAction, 0, n)
	for i := uint64(0); i < n; i++ {
		var a memo.GraphAction
		a.Kind = r.byteVal()
		a.Rel = int32(r.zigzag())
		a.Cycles = uint32(r.uvarint())
		a.Insts = int32(r.zigzag())
		a.Loads = int32(r.zigzag())
		a.Stores = int32(r.zigzag())
		a.Recs = int32(r.zigzag())
		a.Next = r.zigzag()
		a.NextCfg = r.zigzag()
		ne := r.uvarint()
		if r.bad || ne > uint64(len(payload)) {
			return fmt.Errorf("%w: truncated action %d", ErrCorrupt, i)
		}
		if ne > 0 {
			a.Labels = make([]int64, 0, ne)
			a.Targets = make([]int64, 0, ne)
			for k := uint64(0); k < ne; k++ {
				a.Labels = append(a.Labels, r.zigzag())
				a.Targets = append(a.Targets, r.zigzag())
			}
		}
		if r.bad {
			return fmt.Errorf("%w: truncated action %d", ErrCorrupt, i)
		}
		g.Actions = append(g.Actions, a)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in actions section", ErrCorrupt, len(r.data))
	}
	return nil
}

// encodeStats writes the Stats fields in a fixed documented sequence; any
// change to the sequence is a format change and bumps Version.
func encodeStats(s *memo.Stats) []byte {
	var out []byte
	for _, v := range statsFields(s) {
		out = binary.AppendUvarint(out, *v)
	}
	out = binary.AppendUvarint(out, uint64(s.PeakBytes))
	hs := s.ChainHist.State()
	out = binary.AppendUvarint(out, uint64(len(hs.Buckets)))
	for _, b := range hs.Buckets {
		out = binary.AppendUvarint(out, b)
	}
	out = binary.AppendUvarint(out, hs.Count)
	out = binary.AppendUvarint(out, hs.Sum)
	out = binary.AppendUvarint(out, hs.Max)
	return out
}

func decodeStats(payload []byte, s *memo.Stats) error {
	r := reader{data: payload}
	var tmp memo.Stats
	for _, v := range statsFields(&tmp) {
		*v = r.uvarint()
	}
	tmp.PeakBytes = int(r.uvarint())
	nb := r.uvarint()
	if r.bad || nb > uint64(len(payload)) {
		return fmt.Errorf("%w: truncated stats section", ErrCorrupt)
	}
	hs := stats.State{Buckets: make([]uint64, nb)}
	for i := range hs.Buckets {
		hs.Buckets[i] = r.uvarint()
	}
	hs.Count = r.uvarint()
	hs.Sum = r.uvarint()
	hs.Max = r.uvarint()
	if r.bad {
		return fmt.Errorf("%w: truncated stats section", ErrCorrupt)
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in stats section", ErrCorrupt, len(r.data))
	}
	if err := tmp.ChainHist.SetState(hs); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	*s = tmp
	return nil
}

// statsFields returns pointers to the uint64 Stats counters in
// serialization order. PeakBytes is appended separately by the callers;
// Bytes is not serialized at all — ImportGraph recomputes the live
// footprint from the rebuilt cache.
func statsFields(s *memo.Stats) []*uint64 {
	return []*uint64{
		&s.Configs, &s.Actions, &s.ConfigBytesC, &s.NaiveBytesC,
		&s.Lookups, &s.Hits, &s.EpisodesRecord, &s.EpisodesReplay,
		&s.ActionsReplayed, &s.EdgeMisses,
		&s.DetailedInsts, &s.ReplayInsts, &s.DetailedCycles, &s.ReplayCycles,
		&s.Flushes, &s.Collections, &s.Survivors, &s.LiveBeforeColl,
		&s.ChainCount, &s.ChainTotal, &s.ChainMax,
	}
}
