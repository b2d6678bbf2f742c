package snapshot

import "encoding/binary"

// WithUseSlots returns data with its configs section re-encoded so that
// configuration i's v2 use slot holds uses(i), as a writer that still
// filled the slot would have produced. Every other byte is kept.
func WithUseSlots(data []byte, uses func(i int) uint64) []byte {
	img, err := DecodeAny(data)
	if err != nil {
		panic(err)
	}
	g := &img.Graph
	cfgs := binary.AppendUvarint(nil, uint64(len(g.Keys)))
	for i, key := range g.Keys {
		cfgs = binary.AppendUvarint(cfgs, uint64(len(key)))
		cfgs = append(cfgs, key...)
		cfgs = appendZigzag(cfgs, g.First[i])
		cfgs = binary.AppendUvarint(cfgs, uses(i))
	}
	oldLen := binary.LittleEndian.Uint64(data[headerLen+4:])
	out := append([]byte(nil), data[:headerLen]...)
	out = binary.LittleEndian.AppendUint32(out, secConfigs)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(cfgs)))
	out = binary.LittleEndian.AppendUint64(out, fnv1a(cfgs))
	out = append(out, cfgs...)
	return append(out, data[headerLen+sectionHdrLen+int(oldLen):]...)
}
