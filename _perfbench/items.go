package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Every item the benchmark sends starts with a 16-byte header the
// filters leave alone: the item's id (its index in its stream) and its
// stamp — the open-loop generator's intended send time as an offset in
// ns from the start of the schedule, or noStamp for items sent in a
// closed loop.  Both are functions of the schedule, not of the clock,
// so the bytes the sink digests depend on the seed alone.
const (
	headerBytes = 16
	noStamp     = -1
)

func itemID(item []byte) uint64 { return binary.LittleEndian.Uint64(item) }

func itemStamp(item []byte) int64 { return int64(binary.LittleEndian.Uint64(item[8:])) }

// splitmix64 is the generator behind every seeded choice: item sizes,
// payload bytes and the open-loop schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sizeFunc picks item i's total length (header included) from the
// seed.
type sizeFunc func(seed, i uint64) int

// paperSize gives the ~64-byte items of paper-b1 and gateway-churn:
// 48 to 80 bytes.
func paperSize(seed, i uint64) int { return 48 + int(splitmix64(seed^i*0x2545f4914f6cdd1d)%33) }

// wireSize gives wire-uds its mix: nine items in ten of 32 to 160
// bytes, one in ten of 1 to 6 KiB, so batched frames regularly cross
// the 64 KiB slab chunks the socket reader carves.
func wireSize(seed, i uint64) int {
	h := splitmix64(seed ^ i*0x2545f4914f6cdd1d)
	if h%10 == 0 {
		return 1024 + int((h>>8)%(5*1024+1))
	}
	return 32 + int((h>>8)%129)
}

// makeItem builds item id of stream `stream` into a fresh buffer.
func makeItem(seed, stream, id uint64, size int, stamp int64) []byte {
	b := make([]byte, size)
	fillItem(b, seed, stream, id, stamp)
	return b
}

func fillItem(b []byte, seed, stream, id uint64, stamp int64) {
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(stamp))
	x := splitmix64(seed ^ stream<<48 ^ id)
	p := b[headerBytes:]
	for len(p) >= 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(p, x)
		p = p[8:]
	}
	for i := range p {
		p[i] = byte(x >> (8 * i))
	}
}

// stageFn is one pure per-item filter: it rewrites the payload in
// place and never touches the header, so an item's id survives every
// stage and the trace can follow it.
type stageFn func(item []byte)

// The four filters of the benchmark's chains.  Each is a bijection on
// the payload, so a dropped, duplicated or misrouted byte anywhere
// shows up in the sink digest.
var chainFns = []stageFn{
	func(b []byte) { // xor with a position-dependent key
		for i := headerBytes; i < len(b); i++ {
			b[i] ^= byte(i*7 + 0x5a)
		}
	},
	func(b []byte) { // reverse the payload
		p := b[headerBytes:]
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
	},
	func(b []byte) { // add the position
		for i := headerBytes; i < len(b); i++ {
			b[i] += byte(i)
		}
	},
	func(b []byte) { // rotate each byte left by 3
		for i := headerBytes; i < len(b); i++ {
			b[i] = b[i]<<3 | b[i]>>5
		}
	},
}

// digest is the sink's length-prefixed sha256 over the items of one
// stream, in order.
type digest struct {
	h hash.Hash
	n int64
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(item []byte) {
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(item)))
	d.h.Write(l[:])
	d.h.Write(item)
	d.n++
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// referenceDigest regenerates the n items a source sent on stream
// `stream`, applies fns to each in-process, and digests the result: the
// value a correct sink must have computed.  stamp(i) returns the stamp
// the source wrote on item i.
func referenceDigest(seed, stream uint64, n int64, size sizeFunc, stamp func(i int64) int64, fns []stageFn) string {
	d := newDigest()
	buf := make([]byte, 0, 8<<10)
	for i := int64(0); i < n; i++ {
		b := buf[:size(seed, uint64(i))]
		fillItem(b, seed, stream, uint64(i), stamp(i))
		for _, f := range fns {
			f(b)
		}
		d.add(b)
	}
	return d.sum()
}
