package raft_test

import (
	"path/filepath"
	"testing"

	"adore/internal/raft"
)

// BenchmarkWALAppend measures the FileStorage hot path: one SaveEntries
// call (one frame, one fsync) per operation. Run with -benchmem; the
// allocs/op column is the target of appendLocked's reused frame buffer.
func BenchmarkWALAppend(b *testing.B) {
	st, err := raft.OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	entry := []raft.LogEntry{{Term: 1, Kind: raft.EntryCommand, Command: []byte("benchmark-payload-0123456789")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.SaveEntries(i+1, entry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendBatch64 is the group-commit shape: 64 entries per
// frame, amortizing the fsync and the per-frame overhead.
func BenchmarkWALAppendBatch64(b *testing.B) {
	st, err := raft.OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := make([]raft.LogEntry, 64)
	for i := range batch {
		batch[i] = raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: []byte("benchmark-payload-0123456789")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	first := 1
	for i := 0; i < b.N; i++ {
		if err := st.SaveEntries(first, batch); err != nil {
			b.Fatal(err)
		}
		first += len(batch)
	}
}
