package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
)

// rowDigest is the reference Index.Digest is pinned to: hex sha256 over one
// 24-byte little-endian record per row packet — TS, Src, Dst, SrcPort,
// DstPort, Len, Proto, Flags — written field by field from the Packet.
func rowDigest(tr *Trace) string {
	h := sha256.New()
	var buf [24]byte
	for i := range tr.Packets {
		p := &tr.Packets[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.TS))
		binary.LittleEndian.PutUint32(buf[8:], uint32(p.Src))
		binary.LittleEndian.PutUint32(buf[12:], uint32(p.Dst))
		binary.LittleEndian.PutUint16(buf[16:], p.SrcPort)
		binary.LittleEndian.PutUint16(buf[18:], p.DstPort)
		binary.LittleEndian.PutUint16(buf[20:], p.Len)
		buf[22] = byte(p.Proto)
		buf[23] = byte(p.Flags)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildFused feeds every packet of tr through a pooled IndexBuilder.
func buildFused(t *testing.T, tr *Trace) *Index {
	t.Helper()
	b := NewIndexBuilder()
	for _, p := range tr.Packets {
		if err := b.Add(p); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return b.Finish()
}

// TestBuilderMatchesReference pins the single-pass builder to the map-based
// reference: identical structures (EqualIndexes over columns, flows, runs,
// postings) and an identical content digest, which must also equal
// the source trace's row digest.
func TestBuilderMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 37, 4000} {
		tr := indexTestTrace(int64(100+n), n)
		fused := buildFused(t, tr)
		ref := BuildIndex(tr)
		if !EqualIndexes(fused, ref) {
			t.Fatalf("n=%d: built index differs from reference", n)
		}
		if fused.Digest() != ref.Digest() {
			t.Fatalf("n=%d: digest mismatch", n)
		}
		if fused.Digest() != rowDigest(tr) {
			t.Fatalf("n=%d: index digest %s != row digest %s", n, fused.Digest(), rowDigest(tr))
		}
		fused.Release()
	}
}

// TestBuilderPoolReuse runs many sequential pooled builds over distinct
// traces, releasing each index back to the arena pool, and checks every
// build against the reference — buffer reuse must never leak one trace's
// contents into the next index.
func TestBuilderPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 12; round++ {
		// Vary the size sharply so reuse exercises both growth and shrink.
		n := []int{3000, 10, 700, 1}[round%4] + rng.Intn(50)
		tr := indexTestTrace(int64(round), n)
		fused := buildFused(t, tr)
		ref := BuildIndex(tr)
		if !EqualIndexes(fused, ref) {
			t.Fatalf("round %d (n=%d): pooled rebuild differs from reference", round, n)
		}
		if got, want := fused.Digest(), rowDigest(tr); got != want {
			t.Fatalf("round %d: digest %s != %s", round, got, want)
		}
		fused.Release()
		fused.Release() // idempotent
	}
}

// TestBuilderRejectsUnsortedInput covers the fused path's one deliberate
// behavioral difference from the reference: the sorted trace model is
// enforced at Add time.
func TestBuilderRejectsUnsortedInput(t *testing.T) {
	b := NewIndexBuilder()
	if err := b.Add(Packet{TS: -1}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("negative timestamp: got %v, want ErrUnsorted", err)
	}
	b.Discard()

	b = NewIndexBuilder()
	if err := b.Add(Packet{TS: 100}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Packet{TS: 99}); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("out-of-order timestamp: got %v, want ErrUnsorted", err)
	}
	b.Discard()

	// Equal timestamps are in order — the trace model sorts on TS only.
	b = NewIndexBuilder()
	if err := b.Add(Packet{TS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Packet{TS: 5}); err != nil {
		t.Fatal(err)
	}
	b.Finish().Release()
}

// TestBuilderAddAfterFinish pins the terminal-state errors.
func TestBuilderAddAfterFinish(t *testing.T) {
	b := NewIndexBuilder()
	if err := b.Add(Packet{TS: 1}); err != nil {
		t.Fatal(err)
	}
	ix := b.Finish()
	defer ix.Release()
	if err := b.Add(Packet{TS: 2}); err == nil {
		t.Fatal("Add after Finish must fail")
	}

	d := NewIndexBuilder()
	d.Discard()
	if err := d.Add(Packet{TS: 1}); err == nil {
		t.Fatal("Add after Discard must fail")
	}
}

// TestReleaseFailsFast ensures a released index cannot quietly serve stale
// data: every column is nil'd, so use-after-release panics instead of
// returning another trace's packets.
func TestReleaseFailsFast(t *testing.T) {
	tr := indexTestTrace(9, 50)
	ix := buildFused(t, tr)
	ix.Release()
	if ix.TS != nil || ix.Src != nil || ix.Dst != nil {
		t.Fatal("columns must be nil after Release")
	}
	if ix.Len() != 0 {
		t.Fatal("released index must report zero length")
	}
}

// TestNewIndexIsDetached: NewIndex goes through the one builder (so it
// matches the reference), owns its buffers outright — Release must leave it
// intact — and refuses a trace outside the sorted model.
func TestNewIndexIsDetached(t *testing.T) {
	tr := indexTestTrace(11, 600)
	ix := NewIndex(tr)
	if !EqualIndexes(ix, BuildIndex(tr)) {
		t.Fatal("NewIndex differs from reference")
	}
	if ix.arena != nil {
		t.Fatal("NewIndex must not hold a pooled arena")
	}
	ix.Release()
	if ix.Len() != tr.Len() || ix.Digest() != rowDigest(tr) {
		t.Fatal("Release must be a no-op on a detached index")
	}

	tr.Packets[0], tr.Packets[len(tr.Packets)-1] = tr.Packets[len(tr.Packets)-1], tr.Packets[0]
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrUnsorted) {
			t.Fatalf("NewIndex on an unsorted trace panicked with %v, want ErrUnsorted", err)
		}
	}()
	NewIndex(tr)
	t.Fatal("NewIndex accepted an unsorted trace")
}

// TestIndexDigestMatchesTrace locks the Index.Digest record layout to the
// row reference on a trace with every column exercised.
func TestIndexDigestMatchesTrace(t *testing.T) {
	tr := indexTestTrace(13, 257)
	if got, want := NewIndex(tr).Digest(), rowDigest(tr); got != want {
		t.Fatalf("Index.Digest %s != row digest %s", got, want)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits.
	base := Mix64(0x123456789abcdef)
	flipped := Mix64(0x123456789abcdee)
	diff := base ^ flipped
	ones := 0
	for diff != 0 {
		ones += int(diff & 1)
		diff >>= 1
	}
	if ones < 16 || ones > 48 {
		t.Errorf("avalanche bits = %d, want near 32", ones)
	}
}
