package raft_test

import (
	"path/filepath"
	"testing"

	"adore/internal/raft"
)

// walDisks are the file systems the WAL benchmarks run on, each a
// sub-benchmark: OSFS pays a real write and fsync per call, and MemFS shows
// the storage layer's own ns, bytes and allocations per call apart from them.
var walDisks = []struct {
	name string
	open func(b *testing.B) (*raft.FileStorage, error)
}{
	{"OSFS", func(b *testing.B) (*raft.FileStorage, error) {
		return raft.OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
	}},
	{"MemFS", func(*testing.B) (*raft.FileStorage, error) { return raft.OpenFileStorageOn(raft.NewMemFS(), "wal") }},
}

// BenchmarkWALAppend measures the FileStorage hot path: one SaveEntries
// call (one frame, one fsync) per operation. Run with -benchmem; the
// allocs/op column is the target of appendLocked's reused frame buffer.
func BenchmarkWALAppend(b *testing.B) {
	entry := []raft.LogEntry{{Term: 1, Kind: raft.EntryCommand, Command: []byte("benchmark-payload-0123456789")}}
	for _, disk := range walDisks {
		b.Run(disk.name, func(b *testing.B) {
			st, err := disk.open(b)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.SaveEntries(i+1, entry); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendBatch64 is the group-commit shape: 64 entries per
// frame, amortizing the fsync and the per-frame overhead.
func BenchmarkWALAppendBatch64(b *testing.B) {
	batch := make([]raft.LogEntry, 64)
	for i := range batch {
		batch[i] = raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: []byte("benchmark-payload-0123456789")}
	}
	for _, disk := range walDisks {
		b.Run(disk.name, func(b *testing.B) {
			st, err := disk.open(b)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			first := 1
			for i := 0; i < b.N; i++ {
				if err := st.SaveEntries(first, batch); err != nil {
					b.Fatal(err)
				}
				first += len(batch)
			}
		})
	}
}
