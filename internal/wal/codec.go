package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"

	"vats/internal/disk"
)

// Log frame format. The manager serializes every batch into a
// checksummed frame and writes the real bytes through the device's
// cache/fsync model; crash recovery then decodes the device's durable
// byte image instead of trusting in-memory bookkeeping. Torn writes
// surface as an invalid tail, lost suffixes simply end the image early,
// and a frame is recovered all-or-nothing — exactly the batch
// atomicity AppendBatch promises.
//
// Layout (little endian):
//
//	magic  uint32 = frameMagic
//	txn    uint64
//	first  uint64  (LSN of record 0; records are dense)
//	nrec   uint32
//	dlen   uint32  (payload byte length)
//	ends   nrec × uint32 (end offset of record i in the payload)
//	data   dlen bytes
//	crc    uint32  (IEEE CRC-32 of everything above)
const (
	frameMagic      = 0x57414c31 // "WAL1"
	frameHeaderSize = 4 + 8 + 8 + 4 + 4
	frameTrailer    = 4
)

// Frame decode errors. DecodeImage treats any of them as the torn tail
// of the image; FuzzWALDecode asserts they are returned (never a panic)
// for arbitrary corrupt input.
var (
	ErrBadFrame   = errors.New("wal: corrupt frame")
	ErrShortFrame = errors.New("wal: truncated frame")
)

// appendFrame serializes bt as one frame onto dst.
func appendFrame(dst []byte, bt *batch) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint64(hdr[4:], bt.txn)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(bt.first))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(bt.ends)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(bt.data)))
	start := len(dst)
	dst = append(dst, hdr[:]...)
	var tmp [4]byte
	for _, e := range bt.ends {
		binary.LittleEndian.PutUint32(tmp[:], uint32(e))
		dst = append(dst, tmp[:]...)
	}
	dst = append(dst, bt.data...)
	binary.LittleEndian.PutUint32(tmp[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, tmp[:]...)
}

// decodeFrame parses one frame from the head of b, returning the batch
// and the number of bytes consumed. It never panics and never reads
// past len(b): corrupt input yields ErrBadFrame, input that ends
// mid-frame yields ErrShortFrame.
func decodeFrame(b []byte) (*batch, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrShortFrame
	}
	if binary.LittleEndian.Uint32(b[0:]) != frameMagic {
		return nil, 0, ErrBadFrame
	}
	txn := binary.LittleEndian.Uint64(b[4:])
	first := LSN(binary.LittleEndian.Uint64(b[12:]))
	nrec := binary.LittleEndian.Uint32(b[20:])
	dlen := binary.LittleEndian.Uint32(b[24:])
	if nrec == 0 || first == 0 {
		return nil, 0, ErrBadFrame
	}
	// Bound the total before allocating anything: nrec/dlen are
	// attacker-controlled and must not drive an over-read or a huge
	// allocation.
	total := int64(frameHeaderSize) + 4*int64(nrec) + int64(dlen) + frameTrailer
	if total > int64(len(b)) {
		return nil, 0, ErrShortFrame
	}
	n := int(total)
	sum := crc32.ChecksumIEEE(b[:n-frameTrailer])
	if sum != binary.LittleEndian.Uint32(b[n-frameTrailer:]) {
		return nil, 0, ErrBadFrame
	}
	ends := make([]int, nrec)
	prev := 0
	for i := range ends {
		e := int(binary.LittleEndian.Uint32(b[frameHeaderSize+4*i:]))
		if e < prev || e > int(dlen) {
			return nil, 0, ErrBadFrame
		}
		ends[i] = e
		prev = e
	}
	if prev != int(dlen) {
		return nil, 0, ErrBadFrame
	}
	dataStart := frameHeaderSize + 4*int(nrec)
	data := append([]byte(nil), b[dataStart:dataStart+int(dlen)]...)
	return &batch{txn: txn, first: first, data: data, ends: ends}, n, nil
}

// DecodeImage decodes a device's durable byte image into log entries.
// Decoding stops at the first invalid or truncated frame — the torn
// tail a crash mid-flush leaves behind — and torn reports how many
// trailing bytes were discarded. A fully valid image has torn == 0.
func DecodeImage(img []byte) (entries []Entry, torn int) {
	off := 0
	for off < len(img) {
		bt, n, err := decodeFrame(img[off:])
		if err != nil {
			return entries, len(img) - off
		}
		start := 0
		for i, end := range bt.ends {
			entries = append(entries, Entry{
				LSN:     bt.first + LSN(i),
				Txn:     bt.txn,
				Payload: bt.data[start:end:end],
			})
			start = end
		}
		off += n
	}
	return entries, 0
}

// MergeEntries merges entry lists into one LSN-ordered list, dropping
// duplicate LSNs. Duplicates are legitimate: the torture harness merges
// a device's durable image with its acked image, which contains it; the
// payload bytes are identical.
func MergeEntries(streams ...[]Entry) []Entry {
	var out []Entry
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	dedup := out[:0]
	var last LSN
	for _, e := range out {
		if len(dedup) > 0 && e.LSN == last {
			continue
		}
		dedup = append(dedup, e)
		last = e.LSN
	}
	return dedup
}

// RecoverDeviceEntries decodes and merges the durable images of log
// devices — the physical-truth input to crash recovery after a
// simulated machine crash.
func RecoverDeviceEntries(devs ...disk.Device) []Entry {
	streams := make([][]Entry, 0, len(devs))
	for _, d := range devs {
		es, _ := DecodeImage(d.DurableImage())
		streams = append(streams, es)
	}
	return MergeEntries(streams...)
}

// AckedDeviceEntries is RecoverDeviceEntries over the devices' acked
// images: what the devices claimed was durable, including anything a
// dropped fsync lied about. The torture harness compares the two to
// separate device lies from WAL bugs.
func AckedDeviceEntries(devs ...disk.Device) []Entry {
	streams := make([][]Entry, 0, len(devs))
	for _, d := range devs {
		es, _ := DecodeImage(d.AckedImage())
		streams = append(streams, es)
	}
	return MergeEntries(streams...)
}
