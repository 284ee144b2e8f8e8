package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// startSolo brings up a one-replica deployment on dir's WAL, serving get
// with no read index when local, and waits for it to elect itself.
func startSolo(t *testing.T, dir string, local bool) *server {
	t.Helper()
	srv, err := start(config{
		id:              1,
		listen:          "127.0.0.1:0",
		peers:           map[types.NodeID]string{1: "127.0.0.1:0"},
		shards:          1,
		walDir:          dir,
		electionTimeout: 20 * time.Millisecond,
		readLocal:       local,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.host.Node(0).Snapshot().Role != raft.Leader {
		if time.Now().After(deadline) {
			srv.stop()
			t.Fatal("solo replica never elected itself")
		}
		time.Sleep(time.Millisecond)
	}
	return srv
}

func expect(t *testing.T, c *session, line, want string) {
	t.Helper()
	if got := c.handleCommand(strings.Fields(line)); got != want {
		t.Fatalf("%q: got %q, want %q", line, got, want)
	}
}

// A replica restarted on its WAL recovers the replicated dedup table. Client
// sessions must not: a write on a fresh connection after the restart has to
// apply, not be swallowed as a duplicate of what the previous incarnation's
// sessions wrote. Deletes and CAS report what the state machine did.
func TestWritesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv := startSolo(t, dir, false)
	c := srv.newSession()
	expect(t, c, "put a 1", "OK")
	expect(t, c, "put b 2", "OK")
	expect(t, c, "put c 3", "OK")
	srv.stop()

	srv = startSolo(t, dir, false)
	defer srv.stop()
	c = srv.newSession()
	expect(t, c, "put a after-restart", "OK")
	expect(t, c, "get a", "VALUE after-restart")
	expect(t, c, "get b", "VALUE 2")
	expect(t, c, "cas b nope x", "NOTSWAPPED")
	expect(t, c, "cas b 2 x", "OK")
	expect(t, srv.newSession(), "get b", "VALUE x")
	expect(t, c, "delete a", "OK")
	expect(t, c, "get a", "NOTFOUND")
	expect(t, c, "delete a", "NOTFOUND")
}

// get serves at both -read-modes. In follower mode (the flag's default) it
// asks for a read index, which a replica that happens to lead answers itself;
// status shows the two watermarks a follower-served read sits between.
func TestGetThroughReadBarrier(t *testing.T) {
	for _, mode := range []string{"follower", "local"} {
		t.Run(mode, func(t *testing.T) {
			srv := startSolo(t, t.TempDir(), mode == "local")
			defer srv.stop()
			c := srv.newSession()
			expect(t, c, "get k", "NOTFOUND")
			expect(t, c, "put k v", "OK")
			expect(t, c, "get k", "VALUE v")
			st := c.handleCommand([]string{"status"})
			if !strings.Contains(st, " applied=") || !strings.Contains(st, " stable=") {
				t.Fatalf("status %q does not report the applied and stable indexes", st)
			}
		})
	}
}

// TestReadModeFlag: -read-mode takes follower and local; the leader-only
// modes are refused with a pointer to the one lease switch.
func TestReadModeFlag(t *testing.T) {
	for _, c := range []struct {
		in      string
		local   bool
		wantErr string
	}{
		{"follower", false, ""},
		{"local", true, ""},
		{"leader-readindex", false, "-disable-lease-read"},
		{"leader-lease", false, "-disable-lease-read"},
		{"bogus", false, "unknown"},
	} {
		local, err := parseReadMode(c.in)
		if c.wantErr == "" {
			if err != nil || local != c.local {
				t.Errorf("parseReadMode(%q) = %v, %v; want %v", c.in, local, err, c.local)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("parseReadMode(%q) err = %v; want one naming %q", c.in, err, c.wantErr)
		}
	}
}

// FuzzParseCommand is the client line protocol's decoder under arbitrary
// lines: parseCommand never panics, allocates in proportion to the line, and
// is canonical or loud — an accepted line renders to one that parses to the
// same request, and a rejected one gets an "ERR ..." reply. The seeds are
// committed under testdata/fuzz/FuzzParseCommand.
func FuzzParseCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		req, reply := parseCommand(strings.Fields(line))
		runtime.ReadMemStats(&b)
		if n, limit := b.TotalAlloc-a.TotalAlloc, uint64(16*len(line)+64<<10); n > limit {
			t.Fatalf("parsing a %d-byte line allocated %d (limit %d)", len(line), n, limit)
		}
		if reply != "" {
			if !strings.HasPrefix(reply, "ERR ") || req != (request{}) {
				t.Fatalf("%q rejected with reply %q and request %+v", line, reply, req)
			}
			return
		}
		again, reply := parseCommand(strings.Fields(render(req)))
		if reply != "" || again != req {
			t.Fatalf("%q parsed to %+v, which renders to %q and parses to %+v (%q)", line, req, render(req), again, reply)
		}
	})
}

// render writes req as the line protocol spells it.
func render(req request) string {
	switch req.verb {
	case "get", "delete":
		return req.verb + " " + req.cmd.Key
	case "put":
		return "put " + req.cmd.Key + " " + req.cmd.Value
	case "cas":
		return "cas " + req.cmd.Key + " " + req.cmd.Old + " " + req.cmd.Value
	case "addserver", "removeserver":
		return fmt.Sprintf("%s %d", req.verb, req.id)
	case "transfer":
		if req.id != types.NoNode {
			return fmt.Sprintf("transfer %d", req.id)
		}
	}
	return req.verb
}
