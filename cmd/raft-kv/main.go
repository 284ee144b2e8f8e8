// Command raft-kv runs one replica of the replicated key-value store over
// real TCP — the deployment path corresponding to the paper's extracted
// OCaml protocol plus network wrapper.
//
// Start a 3-node cluster in three shells:
//
//	raft-kv -id 1 -listen 127.0.0.1:7001 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//	raft-kv -id 2 -listen 127.0.0.1:7002 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//	raft-kv -id 3 -listen 127.0.0.1:7003 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//
// With -shards N each replica hosts N independent raft groups multiplexed
// over the same TCP connections (a multiraft.Host), the keyspace hash-
// partitioned across them: every command routes to its key's group, each
// group elects its own leader and compacts its own WAL. All replicas must
// agree on -shards.
//
// Each replica also serves a line-oriented client protocol on -client-listen
// (default: raft port + 1000):
//
//	printf 'put name adore\nget name\n' | nc 127.0.0.1 8001
//
// Commands: get K | put K V | delete K | cas K OLD NEW | members | status |
// addserver ID | removeserver ID | transfer [ID]. Writes must be sent to
// the key's shard leader (responses include a redirect hint otherwise) and
// answer with the applied result: put OK; delete OK or NOTFOUND; cas OK or
// NOTSWAPPED. Every connection is its own client session (a random 64-bit
// client ID, a per-connection sequence number) in the replicated dedup
// table, so a restarted replica never mistakes a new request for an old one.
// Membership and transfer commands apply to every group the host runs.
// removeserver naming the leader itself does not remove it: the leader hands
// off to its most caught-up surviving voter and answers
// "ERR gN: raft: leadership transfer in progress: handing off to SX before
// SY leaves"; re-send removeserver to SX.
//
// Reads are linearizable by default (-read-mode follower): get asks the
// replica it reached for a read index — a follower forwards the request to
// the key's shard leader, the leader answers from its lease or a quorum
// barrier — and serves from its own state machine once it has applied
// through that index, so ANY replica serves linearizable reads.
// -disable-lease-read makes the leader prove every read with a barrier.
// -read-mode local skips the read index entirely and may return stale values.
//
// With -wal DIR the replica persists its log (and, with
// -snapshot-threshold N, periodic state-machine snapshots that truncate
// it) and recovers both across restarts. With -shards > 1 each group lives
// in its own DIR/group-NNNN subdirectory, so one group's compaction can
// never unlink another's segments.
//
// A replica is a kvstore.Server on the TCP transport; this command adds the
// flags and the line protocol.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

func main() {
	var (
		idFlag       = flag.Uint("id", 1, "this node's ID")
		listen       = flag.String("listen", "127.0.0.1:7001", "raft listen address")
		clientListen = flag.String("client-listen", "", "client listen address (default: raft port + 1000)")
		peersFlag    = flag.String("peers", "", "comma-separated id=addr pairs for every cluster member")
		timeoutMin   = flag.Duration("election-timeout", 150*time.Millisecond, "minimum election timeout")
		walDir       = flag.String("wal", "", "directory for the file-backed WAL (default: none; the replica is volatile, and a restart comes back at term 0 with an empty log under its old ID)")
		snapThr      = flag.Int("snapshot-threshold", 0, "applied entries between state-machine snapshots (0 = no local compaction)")
		shardsFlag   = flag.Int("shards", 1, "raft groups hosted by every replica; keys hash across them (all replicas must agree)")
		readModeFlag = flag.String("read-mode", "follower", "how get is served: follower (linearizable from any replica) or local (no read index, may be stale)")
		disLease     = flag.Bool("disable-lease-read", false, "turn off the leader lease: every linearizable get pays a quorum barrier")
	)
	flag.Parse()

	readLocal, err := parseReadMode(*readModeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := config{
		id:              types.NodeID(*idFlag),
		listen:          *listen,
		peers:           peers,
		shards:          max(*shardsFlag, 1),
		walDir:          *walDir,
		snapThreshold:   *snapThr,
		electionTimeout: *timeoutMin,
		ablation:        raft.Ablation{DisableLeaseRead: *disLease},
		readLocal:       readLocal,
	}
	if _, ok := peers[cfg.id]; !ok {
		fmt.Fprintf(os.Stderr, "node %d missing from -peers\n", cfg.id)
		os.Exit(2)
	}
	srv, err := start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	caddr := *clientListen
	if caddr == "" {
		caddr = bumpPort(*listen, 1000)
	}
	ln, err := net.Listen("tcp", caddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("raft-kv node %s: raft on %s, clients on %s, %d shard(s), members %v\n",
		cfg.id, *listen, caddr, cfg.shards, srv.members)
	go srv.serve(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	ln.Close()
	srv.stop()
}

// config is one replica's deployment: what the flags say.
type config struct {
	id              types.NodeID
	listen          string
	peers           map[types.NodeID]string
	shards          int
	walDir          string
	snapThreshold   int
	electionTimeout time.Duration
	ablation        raft.Ablation
	readLocal       bool // -read-mode local: serve gets with no read index
}

// parseReadMode reads the -read-mode flag: whether gets are served locally
// with no read index. leader-readindex and leader-lease are refused: the
// leader itself picks lease or barrier, and -disable-lease-read is the switch
// between them.
func parseReadMode(s string) (local bool, err error) {
	switch s {
	case "follower":
		return false, nil
	case "local":
		return true, nil
	case "leader-readindex", "leader-lease":
		return false, fmt.Errorf("-read-mode %s is gone: every replica serves linearizable reads (follower), "+
			"and the leader picks lease or barrier itself; use -disable-lease-read to turn the lease off", s)
	default:
		return false, fmt.Errorf("unknown -read-mode %q (want follower or local)", s)
	}
}

// start brings one replica up: the TCP transport and a kvstore.Server over
// it, with one group per shard.
func start(cfg config) (*server, error) {
	members := make([]types.NodeID, 0, len(cfg.peers))
	for pid := range cfg.peers {
		members = append(members, pid)
	}
	tr, err := transport.NewTCPTransport(cfg.id, cfg.listen, cfg.peers, nil)
	if err != nil {
		return nil, err
	}
	host, err := kvstore.StartServer(multiraft.Options{
		ID:                 cfg.id,
		Members:            members,
		Groups:             cfg.shards,
		Transport:          tr,
		ElectionTimeoutMin: cfg.electionTimeout,
		StorageRoot:        cfg.walDir,
		SnapshotThreshold:  cfg.snapThreshold,
		Ablation:           cfg.ablation,
		Seed:               int64(cfg.id),
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &server{cfg: cfg, members: members, tr: tr, host: host}, nil
}

// stop shuts the replica down and releases its sockets and WAL.
func (s *server) stop() {
	s.host.Stop()
	s.tr.Close()
}

func parsePeers(s string) (map[types.NodeID]string, error) {
	out := make(map[types.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		out[types.NodeID(id)] = kv[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no peers given (-peers id=addr,...)")
	}
	return out, nil
}

func bumpPort(addr string, by int) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return addr
	}
	return net.JoinHostPort(host, strconv.Itoa(p+by))
}

// server serves the line protocol on one replica.
type server struct {
	cfg     config
	members []types.NodeID // initial membership (every -peers entry)
	tr      *transport.TCPTransport
	host    *kvstore.Server
}

// session is one client connection's identity in the replicated dedup
// table. The line protocol has at most one request outstanding per
// connection — exactly the table's contract — and a fresh random client ID
// per connection means a sequence restarting at 1 (new connection, restarted
// replica) never collides with what an earlier session already applied.
type session struct {
	srv    *server
	client uint64
	seq    uint64
}

func (s *server) newSession() *session {
	return &session{srv: s, client: rand.Uint64()}
}

func (s *server) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			w := bufio.NewWriter(conn)
			defer w.Flush()
			sess := s.newSession()
			for sc.Scan() {
				reply := sess.handleCommand(strings.Fields(sc.Text()))
				fmt.Fprintln(w, reply)
				w.Flush()
			}
		}(conn)
	}
}

// eachGroup runs f on every group's node, collecting per-group errors into
// one reply ("OK" when all groups succeed).
func (s *server) eachGroup(f func(*raft.Node) error) string {
	var errs []string
	for g := 0; g < s.cfg.shards; g++ {
		if err := f(s.host.Node(raft.GroupID(g))); err != nil {
			errs = append(errs, fmt.Sprintf("g%d: %s", g, err))
		}
	}
	if len(errs) > 0 {
		return "ERR " + strings.Join(errs, "; ")
	}
	return "OK"
}

// get serves a read at the configured -read-mode: through the key's replica
// (a read index from the leader, then this replica's apply), or with local
// mode straight from this replica's Store. On a follower the apply wait is
// for the quorum's disks, not this replica's own.
func (s *server) get(key string) string {
	rep := s.host.Replica(key)
	var v string
	var ok bool
	if s.cfg.readLocal {
		v, ok = rep.Store.LocalGet(key)
	} else {
		var err error
		v, ok, err = rep.Read(key, 5*time.Second)
		switch {
		case errors.Is(err, kvstore.ErrTimeout):
			return "ERR timeout waiting for apply"
		case err != nil:
			return fmt.Sprintf("ERR read barrier: %s (try %s)", err, raft.LeaderHint(err))
		}
	}
	if ok {
		return "VALUE " + v
	}
	return "NOTFOUND"
}

// write runs cmd on this session through the key's replica and replies with
// what the state machine did.
func (c *session) write(cmd kvstore.Command) string {
	rep := c.srv.host.Replica(cmd.Key)
	c.seq++
	cmd.Client, cmd.Seq = c.client, c.seq
	res, err := rep.Write(cmd, 5*time.Second)
	switch {
	case errors.Is(err, kvstore.ErrTimeout):
		return "ERR timeout"
	case errors.Is(err, kvstore.ErrNotApplied):
		return fmt.Sprintf("ERR leadership changed, not applied (try %s)", rep.Node.Snapshot().Leader)
	case err != nil:
		return fmt.Sprintf("ERR not leader (try %s)", raft.LeaderHint(err))
	case cmd.Op == kvstore.OpDelete && !res.Found:
		return "NOTFOUND"
	case cmd.Op == kvstore.OpCAS && !res.Swapped:
		return "NOTSWAPPED"
	}
	return "OK"
}

// perGroup renders field of each group's state, labelled by format with the
// group's number when the replica hosts more than one.
func (s *server) perGroup(format string, field func(raft.Snapshot) string) string {
	if s.cfg.shards == 1 {
		return field(s.host.Node(0).Snapshot())
	}
	parts := make([]string, s.cfg.shards)
	for g := range parts {
		parts[g] = fmt.Sprintf(format, g, field(s.host.Node(raft.GroupID(g)).Snapshot()))
	}
	return strings.Join(parts, " ")
}

// statusFields renders one group's status: applied above stable is a
// follower applying what the quorum made durable ahead of its own disk.
func statusFields(st raft.Snapshot) string {
	return fmt.Sprintf("term=%d role=%s leader=%s commit=%d applied=%d stable=%d",
		st.Term, st.Role, st.Leader, st.CommitIndex, st.AppliedIndex, st.StableIndex)
}

// request is one parsed client line: verb is the command in lower case, cmd
// carries get's key and the write put, delete or cas runs, and id is the
// addserver, removeserver and transfer operand (types.NoNode: transfer to
// the most caught-up voter).
type request struct {
	verb string
	cmd  kvstore.Command
	id   types.NodeID
}

// parseCommand parses one line's fields and executes nothing. A line it
// rejects gets the "ERR ..." reply it returns.
func parseCommand(fields []string) (request, string) {
	if len(fields) == 0 {
		return request{}, "ERR empty command"
	}
	req := request{verb: strings.ToLower(fields[0])}
	switch req.verb {
	case "get":
		if len(fields) != 2 {
			return request{}, "ERR usage: get K"
		}
		req.cmd = kvstore.Command{Op: kvstore.OpGet, Key: fields[1]}
	case "put":
		if len(fields) != 3 {
			return request{}, "ERR usage: put K V"
		}
		req.cmd = kvstore.Command{Op: kvstore.OpPut, Key: fields[1], Value: fields[2]}
	case "delete":
		if len(fields) != 2 {
			return request{}, "ERR usage: delete K"
		}
		req.cmd = kvstore.Command{Op: kvstore.OpDelete, Key: fields[1]}
	case "cas":
		if len(fields) != 4 {
			return request{}, "ERR usage: cas K OLD NEW"
		}
		req.cmd = kvstore.Command{Op: kvstore.OpCAS, Key: fields[1], Old: fields[2], Value: fields[3]}
	case "members", "status": // no operands; extra fields are ignored
	case "addserver", "removeserver", "transfer":
		if req.verb != "transfer" && len(fields) != 2 {
			return request{}, "ERR usage: " + req.verb + " ID"
		}
		if len(fields) > 1 {
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return request{}, "ERR bad id"
			}
			req.id = types.NodeID(id)
		}
	default:
		return request{}, "ERR unknown command"
	}
	return req, ""
}

func (c *session) handleCommand(fields []string) string {
	req, reply := parseCommand(fields)
	if reply != "" {
		return reply
	}
	s := c.srv
	switch req.verb {
	case "get":
		return s.get(req.cmd.Key)
	case "put", "delete", "cas":
		return c.write(req.cmd)
	case "members":
		// Groups reconfigure independently; report each group's view.
		return "MEMBERS " + s.perGroup("g%d=%s", func(st raft.Snapshot) string { return st.Members.String() })
	case "status":
		return "STATUS " + s.perGroup("g%d[%s]", statusFields)
	case "addserver":
		return s.eachGroup(func(n *raft.Node) error {
			_, _, err := n.ProposeConfig(n.Snapshot().Members.Add(req.id))
			return err
		})
	case "removeserver":
		return s.eachGroup(func(n *raft.Node) error {
			_, _, err := n.ProposeConfig(n.Snapshot().Members.Remove(req.id))
			return err
		})
	}
	// transfer [ID]: hand every group's leadership to ID, or to the most
	// caught-up voter when no ID is given. Each group must see this on its
	// leader; groups led elsewhere report errors individually.
	if reply := s.eachGroup(func(n *raft.Node) error {
		return n.TransferLeader(req.id)
	}); reply != "OK" {
		return reply
	}
	return "OK (transferring)"
}
