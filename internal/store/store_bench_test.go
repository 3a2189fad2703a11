package store

import (
	"math/rand"
	"path/filepath"
	"testing"
)

func BenchmarkBufferPoolGetHit(b *testing.B) {
	p, err := createAt(filepath.Join(b.TempDir(), "bench.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	bp, _ := NewBufferPool(p, 64)
	f, _ := bp.NewPage()
	id := f.ID
	bp.Unpin(f, true)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := bp.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(g, false)
	}
}

func BenchmarkBufferPoolEvictionChurn(b *testing.B) {
	p, err := createAt(filepath.Join(b.TempDir(), "churn.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	bp, _ := NewBufferPool(p, 16)
	var ids []PageID
	for i := 0; i < 64; i++ {
		f, err := bp.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := bp.Get(ids[rng.Intn(len(ids))])
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(f, false)
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	p, err := createAt(filepath.Join(b.TempDir(), "heap.db"), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pool, _ := NewBufferPool(p, 64)
	h, _ := NewHeapFile(p, pool, 5)
	rec := make([]byte, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}
