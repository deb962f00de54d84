package netpkt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// checksumAddRef is the plain RFC 1071 sum: one big-endian 16-bit word
// per step into a 32-bit accumulator. It is the oracle the
// word-at-a-time kernel must fold identically to. It wraps once the sum
// passes 2^32, so callers keep sum + 0xffff*len(b)/2 below that.
func checksumAddRef(sum uint32, b []byte) uint32 {
	i := 0
	for ; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if i < len(b) {
		sum += uint32(b[i]) << 8
	}
	return sum
}

// TestChecksumMatchesReference runs the kernel against the reference
// over every length across the 32-byte stride, 8-byte word, 16-bit and
// odd-byte paths, with initial sums that are empty, one word's maximum,
// an unfolded carry, and random, over bodies that exercise the zero
// accumulator, maximal carries and ordinary data.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 130)
	rng.Read(random)
	bodies := []struct {
		name string
		b    []byte
	}{
		{"zeros", make([]byte, 130)},
		{"ones", bytes.Repeat([]byte{0xff}, 130)},
		{"random", random},
	}
	inits := []uint32{0, 0xffff, 0x1fffe}
	for i := 0; i < 4; i++ {
		// Below 2^31, so the reference cannot wrap at these lengths.
		inits = append(inits, rng.Uint32()>>1)
	}
	for _, body := range bodies {
		for n := 0; n <= len(body.b); n++ {
			for _, init := range inits {
				b := body.b[:n]
				got, want := checksumFold(checksumAdd(init, b)), checksumFold(checksumAddRef(init, b))
				if got != want {
					t.Fatalf("%s[:%d] from %#x: folded sum %#04x, reference %#04x", body.name, n, init, got, want)
				}
			}
		}
	}
}

// FuzzChecksum checks the kernel against the reference on arbitrary
// bodies and initial sums, and that a body carrying its own checksum
// verifies to zero.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add(uint32(0x1fffe), bytes.Repeat([]byte{0xff}, 41))
	f.Fuzz(func(t *testing.T, init uint32, b []byte) {
		if len(b) > 0xffff {
			t.Skip("longer than any IPv4 packet")
		}
		init >>= 1 // keep the reference below its 2^32 wrap
		if got, want := checksumFold(checksumAdd(init, b)), checksumFold(checksumAddRef(init, b)); got != want {
			t.Fatalf("len %d from %#x: folded sum %#04x, reference %#04x", len(b), init, got, want)
		}
		if len(b) >= 2 {
			cp := append([]byte(nil), b...)
			cp[0], cp[1] = 0, 0
			c := Checksum(cp)
			cp[0], cp[1] = byte(c>>8), byte(c)
			if Checksum(cp) != 0 {
				t.Fatalf("len %d: body with its checksum %#04x does not verify", len(b), c)
			}
		}
	})
}
