package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
)

// Recovery reads the device image cold: every live page is probed for the
// log framing (magic, bounded used-length, CRC over the used region). A torn
// final append — the torn-write injector persists a prefix of the page —
// fails the CRC and is discarded wholesale: records never span pages, so
// dropping the page drops only records that were never reported committed.
// The CRC-valid pages, ordered by sequence number, are the log; the newest
// checkpoint record among them is the anchor. Pages older than the anchor
// are stale segments an interrupted recycle left behind; pages newer are the
// committed tail to replay, up to the first gap in their sequence numbers: a
// log page that did not survive ends the log, so what is replayed is always a
// prefix of what was appended. Everything invalid, stale or past the gap is
// handed to the structure's recovery as garbage to free.

// scanResult is the decoded state of the on-device log.
type scanResult struct {
	keep     map[storage.PageID]bool // anchor + tail pages: the log's property
	keepList []storage.PageID        // same, in sequence order (anchor first)
	records  []logRecord             // data records after the anchor, in order
	blob     []byte                  // anchor checkpoint blob
	lastSeq  uint64                  // sequence number of the last kept page
	maxSeg   uint64                  // newest valid segment number seen
}

// walPage is one CRC-valid log page during recovery.
type walPage struct {
	id      storage.PageID
	seq     uint64
	seg     uint64
	payload []byte
}

// scanLog collects and orders the valid log pages and locates the anchor.
func scanLog(dev *storage.Device) (*scanResult, error) {
	var pages []walPage
	for _, id := range dev.LivePageIDs() {
		data, err := dev.Read(id)
		if err != nil {
			return nil, fmt.Errorf("wal: recovery read of page %d: %w", id, err)
		}
		if p, ok := scanLogPage(id, data); ok {
			pages = append(pages, p)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].seq < pages[j].seq })

	res := &scanResult{keep: make(map[storage.PageID]bool)}
	anchor := -1
	for i, p := range pages {
		if p.seg > res.maxSeg {
			res.maxSeg = p.seg
		}
		if len(p.payload) > 0 && p.payload[0] == recCheckpoint {
			anchor = i
		}
	}
	if anchor < 0 {
		return nil, fmt.Errorf("wal: no checkpoint record among %d valid log pages", len(pages))
	}
	ap := pages[anchor]
	if len(ap.payload) < 3 {
		return nil, fmt.Errorf("wal: checkpoint record on page %d truncated", ap.id)
	}
	n := int(binary.LittleEndian.Uint16(ap.payload[1:3]))
	if 3+n != len(ap.payload) {
		return nil, fmt.Errorf("wal: checkpoint record on page %d has blob length %d, payload %d", ap.id, n, len(ap.payload))
	}
	res.blob = ap.payload[3 : 3+n]
	res.keep[ap.id] = true
	res.keepList = append(res.keepList, ap.id)
	res.lastSeq = ap.seq

	for _, p := range pages[anchor+1:] {
		if p.seq != res.lastSeq+1 {
			break
		}
		recs, err := decodeRecords(p.payload)
		if err != nil {
			return nil, fmt.Errorf("wal: page %d: %w", p.id, err)
		}
		res.records = append(res.records, recs...)
		res.keep[p.id] = true
		res.keepList = append(res.keepList, p.id)
		res.lastSeq = p.seq
	}
	return res, nil
}

// scanLogPage probes one device page for the log framing. It reports false
// for anything that is not a whole log page — wrong magic, a used-length the
// page cannot hold, a CRC mismatch — so a foreign, torn or stale page
// contributes nothing. The payload is copied out of device memory.
func scanLogPage(id storage.PageID, data []byte) (walPage, bool) {
	if len(data) < walHeader || binary.LittleEndian.Uint32(data[0:4]) != walMagic {
		return walPage{}, false
	}
	used := int(binary.LittleEndian.Uint32(data[24:28]))
	if used > len(data)-walHeader {
		return walPage{}, false // header torn mid-write: length field is garbage
	}
	if binary.LittleEndian.Uint32(data[4:8]) != crc32.ChecksumIEEE(data[8:walHeader+used]) {
		return walPage{}, false // torn or stale page
	}
	return walPage{
		id:      id,
		seq:     binary.LittleEndian.Uint64(data[8:16]),
		seg:     binary.LittleEndian.Uint64(data[16:24]),
		payload: append([]byte(nil), data[walHeader:walHeader+used]...),
	}, true
}

// decodeRecords parses one data page's payload.
func decodeRecords(payload []byte) ([]logRecord, error) {
	var recs []logRecord
	for off := 0; off < len(payload); {
		kind := payload[off]
		switch kind {
		case recUpsert:
			if off+upsertSize > len(payload) {
				return nil, fmt.Errorf("truncated upsert record at byte %d", off)
			}
			recs = append(recs, logRecord{
				kind: recUpsert,
				key:  binary.LittleEndian.Uint64(payload[off+1:]),
				val:  binary.LittleEndian.Uint64(payload[off+1+8:]),
			})
			off += upsertSize
		case recDelete:
			if off+deleteSize > len(payload) {
				return nil, fmt.Errorf("truncated delete record at byte %d", off)
			}
			recs = append(recs, logRecord{
				kind: recDelete,
				key:  binary.LittleEndian.Uint64(payload[off+1:]),
			})
			off += deleteSize
		default:
			return nil, fmt.Errorf("unknown record kind %d at byte %d", kind, off)
		}
	}
	return recs, nil
}

// reopen is the shared recovery driver: scan the log, rebuild the structure
// at the anchor (keeping the log's pages out of its orphan GC), replay the
// committed tail into the overlay, and resume appending in a fresh segment,
// numbering on from the last kept page so the next recovery meets no gap.
func reopen(pool *storage.BufferPool, cfg Config, build func(keep map[storage.PageID]bool, blob []byte) (inner, error)) (*Logged, error) {
	cfg.defaults()
	scan, err := scanLog(pool.Device())
	if err != nil {
		return nil, err
	}
	in, err := build(scan.keep, scan.blob)
	if err != nil {
		return nil, err
	}
	l := &Logged{
		in:        in,
		pool:      pool,
		cfg:       cfg,
		overlay:   make(map[core.Key]entry),
		memo:      make(map[core.Key]int),
		count:     in.Len(),
		seq:       scan.lastSeq,
		seg:       scan.maxSeg + 1,
		livePages: scan.keepList,
		committed: uint64(len(scan.records)),
	}
	// Replay asks the rebuilt structure the same first-touch question the
	// live path does, so a replayed entry's base bit is true to the structure
	// it will be absorbed into — including records a manifest newer than the
	// anchor has already absorbed.
	for _, r := range scan.records {
		_, found, base := l.probe(r.key)
		switch r.kind {
		case recUpsert:
			l.overlay[r.key] = entry{val: r.val, base: base}
			if !found {
				l.count++
			}
		case recDelete:
			l.overlay[r.key] = entry{tomb: true, base: base}
			if found {
				l.count--
			}
		}
	}
	return l, nil
}
