package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
)

// encodeRecords is the test-side inverse of decodeRecords, built from the
// same put/size Commit encodes with.
func encodeRecords(recs []logRecord) []byte {
	var out []byte
	for _, r := range recs {
		buf := make([]byte, r.size())
		r.put(buf)
		out = append(out, buf...)
	}
	return out
}

// FuzzDecodeRecords: recovery's payload decoder never panics, and what it
// accepts it accepts exactly — re-encoding the records gives the input back,
// so no byte of a payload is ever skipped or invented.
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecords([]logRecord{{kind: recUpsert, key: 7, val: 70}, {kind: recDelete, key: 7}}))
	f.Add([]byte{recUpsert, 1, 2, 3})                                       // truncated upsert
	f.Add([]byte{recDelete, 1, 2, 3, 4, 5, 6, 7})                           // truncated delete
	f.Add([]byte{recCheckpoint, 0, 0})                                      // a checkpoint is not a data record
	f.Add(append(encodeRecords([]logRecord{{kind: recDelete, key: 1}}), 9)) // unknown kind after a good record
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeRecords(payload)
		if err != nil {
			if recs != nil {
				t.Fatalf("decode failed with %v but returned %d records", err, len(recs))
			}
			return
		}
		if got := encodeRecords(recs); !bytes.Equal(got, payload) {
			t.Fatalf("decoded records re-encode to %x, input was %x", got, payload)
		}
	})
}

// framed builds a log page image of pageSize around payload the way Commit
// does, in a frame that held 0xFF garbage before.
func framed(pageSize int, seq, seg uint64, payload []byte) []byte {
	page := bytes.Repeat([]byte{0xFF}, pageSize)
	copy(page[walHeader:], payload)
	closePayload(page, len(payload))
	l := &Logged{seq: seq - 1, seg: seg}
	l.stamp(page)
	return page
}

// FuzzScanLogPage: the page framer never panics on arbitrary bytes and
// accepts a page only when magic, used-length and CRC all hold — so a page
// it rejects contributes no record, and a page it accepts is one the log
// wrote. The second half frames the input as a payload and checks the round
// trip, then flips one bit under the magic or the CRC and requires the page
// to be rejected (CRC-32 catches every single-bit error at equal length).
func FuzzScanLogPage(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(make([]byte, 64), uint16(5))
	f.Add(framed(64, 3, 2, []byte{recDelete, 1, 0, 0, 0, 0, 0, 0, 0}), uint16(77))
	torn := framed(64, 9, 1, bytes.Repeat([]byte{recDelete}, 30))
	f.Add(torn[:40], uint16(300)) // a prefix, as the torn-write injector leaves it
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		if p, ok := scanLogPage(1, data); ok {
			used := len(p.payload)
			if binary.LittleEndian.Uint32(data[0:4]) != walMagic ||
				used != int(binary.LittleEndian.Uint32(data[24:28])) || walHeader+used > len(data) ||
				binary.LittleEndian.Uint32(data[4:8]) != crc32.ChecksumIEEE(data[8:walHeader+used]) ||
				!bytes.Equal(p.payload, data[walHeader:walHeader+used]) {
				t.Fatalf("accepted a page that is not a whole log page: %x", data)
			}
		}

		const pageSize = 128
		payload := data[:min(len(data), pageSize-walHeader)]
		page := framed(pageSize, uint64(flip)+1, 4, payload)
		p, ok := scanLogPage(2, page)
		if !ok || p.seq != uint64(flip)+1 || p.seg != 4 || !bytes.Equal(p.payload, payload) {
			t.Fatalf("framed page did not scan back: ok=%v %+v", ok, p)
		}
		for _, b := range page[walHeader+len(payload):] {
			if b != 0 {
				t.Fatalf("frame tail not cleared: %x", page)
			}
		}
		// Any bit of magic, CRC, sequence, segment or payload — not the used
		// field, which changes the CRC'd length.
		covered := walHeader + len(payload) - 4
		at := int(flip) % covered
		if at >= 24 {
			at += 4
		}
		page[at] ^= 1 << (flip % 8)
		if _, ok := scanLogPage(2, page); ok {
			t.Fatalf("page with byte %d damaged was accepted", at)
		}
	})
}

// TestCommitRoundTrip drives random record groups through Commit and reads
// them back the way recovery does: every group's pages scan as valid log
// pages with consecutive sequence numbers, decode to exactly the group, and
// carry nothing but zeros past their payload — although the frames they were
// encoded in are reused and earlier, larger groups left bytes there.
func TestCommitRoundTrip(t *testing.T) {
	for _, medium := range []storage.Medium{storage.SSD, storage.MQSSD} {
		dev := storage.NewDevice(256, medium, nil)
		pool := storage.NewBufferPool(dev, 16)
		l, err := NewBTree(pool, btree.Config{}, Config{CommitBatch: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(medium) + 1))
		for round := 0; round < 200; round++ {
			group := make([]logRecord, 1+rng.Intn(60)/(1+round%3))
			for i := range group {
				group[i] = logRecord{kind: recDelete, key: rng.Uint64()}
				if rng.Intn(3) > 0 {
					group[i] = logRecord{kind: recUpsert, key: rng.Uint64(), val: rng.Uint64()}
				}
			}
			l.pending = append(l.pending[:0], group...)
			first, seq := len(l.livePages), l.seq
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			var got []logRecord
			for _, id := range l.livePages[first:] {
				data, err := dev.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				p, ok := scanLogPage(id, data)
				if seq++; !ok || p.seq != seq || p.seg != l.seg {
					t.Fatalf("round %d: page %d scanned ok=%v seq=%d seg=%d, want seq %d seg %d", round, id, ok, p.seq, p.seg, seq, l.seg)
				}
				if tail := data[walHeader+len(p.payload):]; !bytes.Equal(tail, make([]byte, len(tail))) {
					t.Fatalf("round %d: page %d carries a reused frame's bytes past its payload: %x", round, id, tail)
				}
				recs, err := decodeRecords(p.payload)
				if err != nil {
					t.Fatalf("round %d: page %d: %v", round, id, err)
				}
				got = append(got, recs...)
			}
			if !slices.Equal(got, group) {
				t.Fatalf("round %d: group of %d records read back as %d", round, len(group), len(got))
			}
		}
		if len(l.frames) < 2 || len(l.frames) > 8 {
			t.Fatalf("%d reusable frames after groups of at most 60 records", len(l.frames))
		}
	}
}
