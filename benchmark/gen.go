package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// Values are self-describing so every Get can be checked without a lookup:
//
//	[0:4)   magic
//	[4:8)   key index
//	[8:12)  client that wrote it
//	[12:20) that client's write sequence number
//	[20:28) FNV-64a of the body
//	[28:)   pseudo-random body drawn from the seed
const (
	valueMagic  = 0x4c445342 // "LDSB"
	valueHeader = 28
)

// preloader is the client id of the set-up writes.
const preloader = clients

// valueID names one written value: it is unique per run, and it is what the
// history checker compares instead of the bytes.
type valueID struct {
	client uint32
	seq    uint64
	digest uint64
}

func (v valueID) String() string { return fmt.Sprintf("%d/%d/%016x", v.client, v.seq, v.digest) }

func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// generator is one client's seeded source of operations. Nothing in it
// depends on time or on the system's answers, so a seed fixes the whole
// operation, key and value sequence of the client.
type generator struct {
	w      workload
	keys   int
	client uint32
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    uint64 // values built
	nops   uint64 // operations drawn
}

func newGenerator(w workload, keys int, seed uint64, client uint32) *generator {
	g := &generator{
		w: w, keys: keys, client: client,
		rng: rand.New(rand.NewPCG(seed, uint64(client)+1)),
	}
	if w.Zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, w.Zipf, 1, uint64(keys-1))
	}
	return g
}

// op draws the next operation: its key index and whether it is a Put.
func (g *generator) op() (key int, put bool) {
	g.nops++
	put = g.rng.Float64() < g.w.PutShare
	if g.zipf != nil {
		return int(g.zipf.Uint64()), put
	}
	return g.rng.IntN(g.keys), put
}

// value builds the next value for key in a buffer of its own. The buffer
// must be fresh on every call and never written again: channet hands the
// slice to the L1 servers by reference, so a recycled buffer would rewrite
// values the system already holds.
func (g *generator) value(key int) ([]byte, valueID) {
	g.seq++
	buf := make([]byte, g.w.ValueSize)
	body := buf[valueHeader:]
	x := g.rng.Uint64()
	for len(body) > 0 {
		// splitmix64: cheap enough that filling 16 KiB stays far below one
		// operation's cost.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if len(body) >= 8 {
			binary.LittleEndian.PutUint64(body, z)
			body = body[8:]
			continue
		}
		for i := range body {
			body[i] = byte(z >> (8 * i))
		}
		body = nil
	}
	id := valueID{client: g.client, seq: g.seq, digest: fnv64a(buf[valueHeader:])}
	binary.LittleEndian.PutUint32(buf[0:], valueMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(key))
	binary.LittleEndian.PutUint32(buf[8:], id.client)
	binary.LittleEndian.PutUint64(buf[12:], id.seq)
	binary.LittleEndian.PutUint64(buf[20:], id.digest)
	return buf, id
}

// checkValue verifies a value read for key: header, length and body digest.
func checkValue(v []byte, key, size int) (valueID, error) {
	if len(v) != size {
		return valueID{}, fmt.Errorf("value of key %d has %d bytes, want %d", key, len(v), size)
	}
	if m := binary.LittleEndian.Uint32(v[0:]); m != valueMagic {
		return valueID{}, fmt.Errorf("value of key %d has magic %#x", key, m)
	}
	if k := binary.LittleEndian.Uint32(v[4:]); int(k) != key {
		return valueID{}, fmt.Errorf("read of key %d returned a value written to key %d", key, k)
	}
	id := valueID{
		client: binary.LittleEndian.Uint32(v[8:]),
		seq:    binary.LittleEndian.Uint64(v[12:]),
		digest: binary.LittleEndian.Uint64(v[20:]),
	}
	if d := fnv64a(v[valueHeader:]); d != id.digest {
		return valueID{}, fmt.Errorf("value %v of key %d has body digest %016x", id, key, d)
	}
	return id, nil
}

func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%04d", i)
	}
	return names
}
