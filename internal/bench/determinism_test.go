package bench

import (
	"bytes"
	"testing"
)

// TestTablePrintByteIdentical renders an effort table twice and requires
// identical bytes: the report printers must be pure functions of their
// inputs.
func TestTablePrintByteIdentical(t *testing.T) {
	tb := &Table{Header: []string{"scheme", "states", "result"}}
	tb.Add("raft-single", "1204", "ok")
	tb.Add("paxos-style", "877", "ok")
	tb.Add("primary-backup", "93", "violation")
	var a, b bytes.Buffer
	tb.Print(&a)
	tb.Print(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Table output differs between renders:\nfirst:\n%s\nsecond:\n%s", a.String(), b.String())
	}
}
