package main

import (
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
