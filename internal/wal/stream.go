package wal

// Replication-stream codec: the cluster layer ships the exact framed
// bytes the WAL writes ([len u32][crc32c u32][payload]), concatenated,
// so followers decode peer traffic with the same torn/corrupt handling
// as local replay. Exporting the decoder here keeps the wire format in
// one package; internal/cluster holds no framing knowledge of its own.

// DecodeAll decodes a complete stream of concatenated frames. It
// returns the records decoded before the first error; err is nil only
// when the stream was consumed exactly (no trailing bytes, no torn
// frame). Replication receivers reject the whole delivery on error —
// unlike local replay there is nothing to truncate, the sender just
// retries.
func DecodeAll(b []byte) ([]*Record, error) {
	var recs []*Record
	var off int64
	for off < int64(len(b)) {
		rec, next, err := readFrame(b, off)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, nil
}
