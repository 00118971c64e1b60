package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	grt "runtime"
	"strconv"
	"strings"
	"time"

	"streamshare/internal/core"
	"streamshare/internal/durable"
	"streamshare/internal/photons"
	"streamshare/internal/runtime"
	"streamshare/internal/server"
	"streamshare/sgbench/oracle"
)

// The churn workload: a server.Server as `sgd -data -data-sync interval`
// starts it on a 6×6 grid with three photon sources and a durable catalog,
// driven by one client over a loopback line-protocol connection in a
// closed loop. The catalog journal syncs on the interval policy: under the
// default always policy every mutation waits for an fsync, and the shared
// disk's fsync latency changed enough from run to run to spread the
// client-seen SUBSCRIBE and UNSUBSCRIBE medians by a fifth of their value.
// Each round installs the live population,
// then replaces the oldest subscription with a new one churnPairs times,
// feeding a small document every churnFeedEvery mutations, then runs the
// reliable-refeed operation and restarts the server over its directory.
const (
	churnGrid      = 6
	churnLive      = 256
	churnPairs     = 256
	churnFeedEvery = 8
	churnFeedItems = 48
	// sgdCapacity is sgd's default peer capacity.
	sgdCapacity = 50_000
)

var churnStreams = []struct {
	name string
	at   int
}{{"photons", 0}, {"photons2", 21}, {"photons3", 35}}

// churnEngine builds the daemon's engine with its sources registered.
func churnEngine(srcs []*source) (*core.Engine, error) {
	net := grid(churnGrid)
	for _, id := range net.Peers() {
		if err := net.SetCapacity(id, sgdCapacity); err != nil {
			return nil, err
		}
	}
	eng := core.NewEngine(net, core.Config{})
	for _, s := range srcs {
		if err := s.register(eng); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// daemon is one running server with its listener.
type daemon struct {
	eng  *core.Engine
	srv  *server.Server
	addr string
	done chan struct{}
}

// startDaemon starts a server over dir, recovering its catalog journal.
func startDaemon(srcs []*source, dir string) (*daemon, error) {
	eng, err := churnEngine(srcs)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng, photons.DefaultConfig()).WithDurable(filepath.Join(dir, "catalog"), durable.SyncInterval, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // the listen error wins
		return nil, err
	}
	d := &daemon{eng: eng, srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() { defer close(d.done); srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() error {
	err := d.srv.Close()
	<-d.done
	return err
}

// client speaks the daemon's line protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// do sends one command (with an optional body terminated by a lone ".")
// and returns the reply lines up to the closing ".".
func (c *client) do(cmd, body string) ([]string, error) {
	c.w.WriteString(cmd + "\n")
	if body != "" {
		c.w.WriteString(body)
		if !strings.HasSuffix(body, "\n") {
			c.w.WriteString("\n")
		}
		c.w.WriteString(".\n")
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var lines []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "." {
			break
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "OK") {
		return lines, fmt.Errorf("%s: %v", strings.Fields(cmd)[0], lines)
	}
	return lines, nil
}

func (c *client) subscribe(r subReq) (string, error) {
	lines, err := c.do("SUBSCRIBE "+string(r.target)+" sharing", r.text)
	if err != nil {
		return "", err
	}
	return strings.TrimPrefix(lines[0], "OK "), nil
}

// feedCounts parses a FEED reply into per-subscription result counts.
func feedCounts(lines []string) (map[string]int, error) {
	out := map[string]int{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != 2 {
			return nil, fmt.Errorf("FEED reply line %q", l)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("FEED reply line %q", l)
		}
		out[f[0]] = n
	}
	return out, nil
}

// live tracks the subscriptions the benchmark believes are installed.
type live struct {
	ids  []string
	reqs map[string]subReq
}

// checkFeed compares one FEED reply with the oracle: stateless
// subscriptions exactly; windowed ones may not report a window the oracle
// does not close, nor miss more than the window recomposition can defer.
func (l *live) checkFeed(stream string, ps []oracle.Photon, got map[string]int) error {
	if len(got) != len(l.ids) {
		return fmt.Errorf("FEED reported %d subscriptions, %d live", len(got), len(l.ids))
	}
	for _, id := range l.ids {
		r := l.reqs[id]
		n, ok := got[id]
		if !ok {
			return fmt.Errorf("FEED reply lacks %s", id)
		}
		want := 0
		if r.q.Stream == stream {
			want = r.q.Count(ps)
		}
		if !r.q.Windowed() {
			if n != want {
				return fmt.Errorf("%s: FEED delivered %d, oracle %d\n%s", id, n, want, r.text)
			}
			continue
		}
		if n > want || n < want-windowSlack(r.q) {
			return fmt.Errorf("%s: FEED delivered %d windows, oracle closes %d\n%s", id, n, want, r.text)
		}
	}
	return nil
}

// windowSlack is how many of the oracle's closed windows a subscription
// served by recomposing a finer shared window stream may leave unemitted
// at the end of a feed: those whose last fine tile has not been closed,
// at most ⌈∆/µ⌉ coarse windows.
func windowSlack(q oracle.Query) int { return int((q.Size + q.Step - 1) / q.Step) }

// refeedWait bounds the reliable-refeed operation's second FEED. A healthy
// 300-item reliable FEED returns in milliseconds.
const refeedWait = 300 * time.Millisecond

// errRefeedHang is the reliable-refeed operation's failure.
var errRefeedHang = errors.New("reliable FEED after UNSUBSCRIBE did not return")

// reliableRefeed runs the reliable-refeed operation on a separate
// session-backed server (`sgd -reliable`): FEED more items than the
// credit window, UNSUBSCRIBE one consumer, FEED again. Its inputs are
// fixed, independent of the seed. While the departed consumer's cursor
// pins its channel, the second FEED never returns: the server is then
// abandoned (its session holds the server lock for good) with its
// listener and client connection closed, and lives until its process,
// `sgbench refeed`, exits.
func reliableRefeed() error {
	src := newSource("photons", peerID(0), 4242, 2*refeedItems)
	eng := core.NewEngine(grid(3), core.Config{Reliable: true})
	if err := src.register(eng); err != nil {
		return err
	}
	srv := server.New(eng, photons.DefaultConfig()).WithSession(runtime.NewSession(runtime.SessionOptions{}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	c, err := dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	hang := false
	defer func() {
		c.conn.Close()
		if hang {
			ln.Close()
			return
		}
		srv.Close() //nolint:errcheck // nothing was journaled
	}()
	var ids []string
	for i, q := range refeedQueries {
		id, err := c.subscribe(subReq{text: q, target: peerID(2 + 2*i)})
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	if _, err := c.do("FEED photons", oracle.Doc(src.ps[:refeedItems])); err != nil {
		return err
	}
	if _, err := c.do("UNSUBSCRIBE "+ids[0], ""); err != nil {
		return err
	}
	c.conn.SetReadDeadline(time.Now().Add(refeedWait)) //nolint:errcheck // a failed deadline shows as a hang
	if _, err := c.do("FEED photons", oracle.Doc(src.ps[refeedItems:])); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			hang = true
			return errRefeedHang
		}
		return err
	}
	return nil
}

// refeedHangCode is the exit code of `sgbench refeed` when the second FEED
// hangs.
const refeedHangCode = 4

// refeedInChild runs the reliable-refeed operation in a child process,
// `sgbench refeed`, and waits for it to end. A hung run abandons a server
// whose session heartbeat monitor keeps ticking until its process exits:
// in the benchmark's own process it would add CPU to every later round.
func refeedInChild() (hung bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, "refeed").CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return false, nil
	case errors.As(err, &ee) && ee.ExitCode() == refeedHangCode:
		return true, nil
	default:
		return false, fmt.Errorf("%v: %s", err, out)
	}
}

// refeedItems exceeds the session's default credit window of 256.
const refeedItems = 300

var refeedQueries = []string{
	`<photons>{ for $p in stream("photons")/photons/photon where $p/en >= 1.3 return <hot>{ $p/en }</hot> }</photons>`,
	`<photons>{ for $p in stream("photons")/photons/photon where $p/coord/cel/ra >= 120.0 return <west>{ $p/coord/cel/ra }</west> }</photons>`,
}

func runChurn(seed int64, dur time.Duration, tr *tracer) (*report, error) {
	var srcs []*source
	names := make([]string, len(churnStreams))
	for i, cs := range churnStreams {
		srcs = append(srcs, newSource(cs.name, peerID(cs.at), seed*31+int64(i), statsSample))
		names[i] = cs.name
	}
	pop := population(rand.New(rand.NewSource(populationSeed)), names, churnLive+churnPairs, churnGrid*churnGrid)
	// One document per FEED, streams in turn, det_time running on across
	// a stream's documents.
	nFeeds := 2 * churnPairs / churnFeedEvery
	docs := make([][]oracle.Photon, nFeeds)
	gens := make([]*oracle.Gen, len(churnStreams))
	for i := range gens {
		gens[i] = oracle.NewGen(seed*131 + int64(i))
	}
	for i := range docs {
		docs[i] = gens[i%len(gens)].Generate(churnFeedItems)
	}
	docText := make([]string, nFeeds)
	for i, d := range docs {
		docText[i] = oracle.Doc(d)
	}

	if tr != nil {
		docSrc := make([]string, nFeeds)
		for i := range docSrc {
			docSrc[i] = churnStreams[i%len(churnStreams)].name
		}
		tr.setInputs(&traceInputs{
			srcs: srcs, pop: pop, docs: docs, docSrc: docSrc,
			live: churnLive, feedEvery: churnFeedEvery, mutations: 2 * churnPairs,
			newEng: func() (*core.Engine, error) { return churnEngine(srcs) },
		})
	}

	rep := newReport()
	var s samples
	var feedItems, trafficBytes, workUnits float64
	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		dir, err := workDir("churn")
		if err != nil {
			return nil, err
		}
		res, err := churnRound(srcs, pop, docs, docText, dir, &s, rep, tr, round)
		os.RemoveAll(dir) //nolint:errcheck // scratch state under the build directory
		if err != nil {
			return nil, err
		}
		feedItems += res.feedItems
		trafficBytes += res.traffic
		workUnits += res.work
		// On churn the per-item figures divide the whole closed loop (mostly
		// control plane) by the items fed, and the item rate is the rate at
		// which FEED replies return items.
		s.cpuPerItem = append(s.cpuPerItem, float64(res.loop.cpu.Microseconds())/res.feedItems)
		s.allocPerItem = append(s.allocPerItem, float64(res.loop.alloc)/res.feedItems)
		s.itemsPerS = append(s.itemsPerS, res.feedItems/res.feedWall.Seconds())
		hung, err := refeedInChild()
		if err != nil {
			return nil, fmt.Errorf("reliable-refeed: %w", err)
		}
		if hung {
			rep.fail(1)
		} else {
			rep.ops(1)
		}
	}
	s.netBytes = trafficBytes / feedItems
	s.peerLoad = workUnits / feedItems
	s.fill(rep)
	s.logUnbounded()
	return rep, nil
}

type churnResult struct {
	feedItems, traffic, work float64
	loop                     measured
	feedWall                 time.Duration
}

// churnRound runs one round over a fresh data directory.
func churnRound(srcs []*source, pop []subReq, docs [][]oracle.Photon, docText []string, dir string,
	s *samples, rep *report, tr *tracer, round int) (*churnResult, error) {
	// Set-up and restart each start from a collected heap, so neither pays
	// for the garbage the previous phase left.
	grt.GC()
	start := cpuTime()
	d, err := startDaemon(srcs, dir)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		d.eng.Obs().Latency.SetRate(traceSpanEvery)
	}
	c, err := dial(d.addr)
	if err != nil {
		d.close() //nolint:errcheck // the dial error wins
		return nil, err
	}
	lv := &live{reqs: map[string]subReq{}}
	fail := func(err error) (*churnResult, error) {
		c.conn.Close()
		d.close() //nolint:errcheck // the round's error wins
		return nil, err
	}
	for _, r := range pop[:churnLive] {
		id, err := c.subscribe(r)
		if err != nil {
			return fail(err)
		}
		lv.ids = append(lv.ids, id)
		lv.reqs[id] = r
	}
	rep.ops(churnLive)
	s.setup = append(s.setup, (cpuTime() - start).Seconds())

	res := &churnResult{}
	before := d.eng.Obs().Metrics.Snapshot()
	grt.GC()
	m := startMeter()
	feed := 0
	for i, r := range pop[churnLive:] {
		t0 := time.Now()
		id, err := c.subscribe(r)
		if err != nil {
			return fail(err)
		}
		s.sub = append(s.sub, ms(time.Since(t0)))
		lv.ids = append(lv.ids, id)
		lv.reqs[id] = r

		old := lv.ids[0]
		t0 = time.Now()
		if _, err := c.do("UNSUBSCRIBE "+old, ""); err != nil {
			return fail(err)
		}
		s.unsub = append(s.unsub, ms(time.Since(t0)))
		lv.ids = lv.ids[1:]
		delete(lv.reqs, old)
		rep.ops(2)

		if (2*i+2)%churnFeedEvery == 0 {
			stream := churnStreams[feed%len(churnStreams)].name
			t0 = time.Now()
			lines, err := c.do("FEED "+stream, docText[feed])
			el := time.Since(t0)
			if err != nil {
				return fail(err)
			}
			s.feed = append(s.feed, ms(el))
			res.feedWall += el
			rep.ops(1)
			got, err := feedCounts(lines)
			if err == nil {
				err = lv.checkFeed(stream, docs[feed], got)
			}
			if err != nil {
				return fail(err)
			}
			res.feedItems += float64(len(docs[feed]))
			feed++
		}
	}
	res.loop = m.stop()
	after := d.eng.Obs().Metrics.Snapshot()
	res.traffic = after.Counters["sim.traffic.bytes"] - before.Counters["sim.traffic.bytes"]
	res.work = after.Counters["sim.work.units"] - before.Counters["sim.work.units"]
	if tr != nil && round == 0 {
		tr.churnCounters(before, after, res, s.sub[len(s.sub)-churnPairs:])
	}

	// Restart over the same directory: recover the catalog and answer.
	c.conn.Close()
	if err := d.close(); err != nil {
		return nil, err
	}
	grt.GC()
	t0 := time.Now()
	d2, err := startDaemon(srcs, dir)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	c2, err := dial(d2.addr)
	if err == nil {
		_, err = c2.do("STATS", "")
		c2.conn.Close()
	}
	s.restart = append(s.restart, time.Since(t0).Seconds())
	rep.ops(1)
	if err == nil {
		err = sameIDs(d2.eng.Subscriptions(), lv.ids)
	}
	if cerr := d2.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	return res, nil
}

// sameIDs checks that the recovered catalog holds exactly the live ids.
func sameIDs(subs []*core.Subscription, ids []string) error {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	if len(subs) != len(ids) {
		return fmt.Errorf("recovered %d subscriptions, %d live", len(subs), len(ids))
	}
	for _, s := range subs {
		if !want[s.ID] {
			return fmt.Errorf("recovered %s, which is not live", s.ID)
		}
	}
	return nil
}
