// Package chaos provides deterministic failure injection for the
// fault-tolerance experiments: named crash points that actors consult at
// critical moments, and fault-injecting network dialers that sever or
// refuse connections.
//
// Everything is instance-scoped and seeded, so a failing schedule can be
// replayed exactly.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected marks failures produced by this package.
var ErrInjected = errors.New("chaos: injected failure")

// Points is a registry of named crash points. An actor calls Hit(name) at
// each of its crash points; a true return means "die here now".
type Points struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*rule
	hits  map[string]int
	fired map[string]int
}

type rule struct {
	prob  float64 // probability per hit
	onNth int     // fire on exactly the nth hit (1-based); 0 = disabled
	limit int     // max firings; 0 = unlimited
	count int     // firings so far
}

// NewPoints returns a crash-point registry with a seeded random source.
func NewPoints(seed int64) *Points {
	return &Points{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*rule),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// FailWithProb makes the named point fire with probability p per hit, at
// most limit times (0 = unlimited).
func (c *Points) FailWithProb(name string, p float64, limit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[name] = &rule{prob: p, limit: limit}
}

// FailOnNth makes the named point fire on exactly its nth hit (1-based).
func (c *Points) FailOnNth(name string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[name] = &rule{onNth: n, limit: 1}
}

// Clear removes the rule for a point.
func (c *Points) Clear(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.rules, name)
}

// Hit records that execution reached the named point and reports whether
// the actor should crash there.
func (c *Points) Hit(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[name]++
	r, ok := c.rules[name]
	if !ok {
		return false
	}
	if r.limit > 0 && r.count >= r.limit {
		return false
	}
	fire := false
	if r.onNth > 0 {
		fire = c.hits[name] == r.onNth
	} else if r.prob > 0 {
		fire = c.rng.Float64() < r.prob
	}
	if fire {
		r.count++
		c.fired[name]++
	}
	return fire
}

// Hits returns how many times the named point was reached.
func (c *Points) Hits(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[name]
}

// Fired returns how many times the named point fired.
func (c *Points) Fired(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired[name]
}

// TotalFired sums firings across all points.
func (c *Points) TotalFired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.fired {
		n += v
	}
	return n
}

// Network injects connection-level faults: dial refusals and mid-stream
// connection cuts, simulating the communication failures the paper's
// protocols must mask (Sections 1–2).
type Network struct {
	mu       sync.Mutex
	rng      *rand.Rand
	dialFail float64 // probability a dial is refused
	cutProb  float64 // probability each write severs the connection
	readCut  float64 // probability each read severs the connection

	delay      time.Duration // added to every delivered read
	stragProb  float64       // probability a read is a straggler
	stragDelay time.Duration // extra latency for straggler reads
	delays     int           // reads that were delayed (either knob)

	downMu sync.Mutex
	down   bool // hard partition: all dials refused, all conns cut

	// conns tracks only live connections: a conn is removed the moment it
	// dies (cut, partition, or Close), so long soaks that churn thousands
	// of connections don't accumulate dead entries.
	conns map[net.Conn]struct{}
}

// NewNetwork returns a fault-injecting network with a seeded source.
func NewNetwork(seed int64) *Network {
	return &Network{rng: rand.New(rand.NewSource(seed)), conns: make(map[net.Conn]struct{})}
}

// SetDialFailProb sets the probability that a dial is refused.
func (n *Network) SetDialFailProb(p float64) {
	n.mu.Lock()
	n.dialFail = p
	n.mu.Unlock()
}

// SetCutProb sets the per-write probability that the connection is severed
// mid-stream. The doomed write is delivered first, then the connection
// dies — modeling the paper's worst case: the request reaches the server,
// executes, and the reply is lost in transit (Section 2).
func (n *Network) SetCutProb(p float64) {
	n.mu.Lock()
	n.cutProb = p
	n.mu.Unlock()
}

// SetReadCutProb sets the per-read probability that the connection is
// severed before any bytes are returned: the peer's message is lost in
// transit. Independent of the write path, this models a reply lost on the
// way back even when the request was delivered cleanly.
func (n *Network) SetReadCutProb(p float64) {
	n.mu.Lock()
	n.readCut = p
	n.mu.Unlock()
}

// SetDelay adds a fixed latency to every delivered read: bytes arrive,
// then sit in transit for d before the caller sees them. This models a
// uniformly slow link (or a uniformly slow peer) without losing data —
// the degraded-but-alive regime the paper's timeout-based recovery cannot
// distinguish from a crash.
func (n *Network) SetDelay(d time.Duration) {
	n.mu.Lock()
	n.delay = d
	n.mu.Unlock()
}

// SetStragglerProb makes each delivered read a straggler with probability
// p: the bytes are delayed by an extra d on top of any SetDelay baseline.
// Independent reads straggle independently, producing a heavy-tailed
// latency profile — most replies are fast, an unlucky few set the p99 —
// that a timeout-based client recovery must not mistake for a crash.
func (n *Network) SetStragglerProb(p float64, d time.Duration) {
	n.mu.Lock()
	n.stragProb = p
	n.stragDelay = d
	n.mu.Unlock()
}

// Delays reports how many reads were artificially delayed — lets a soak
// assert the injection actually exercised the slow path.
func (n *Network) Delays() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delays
}

// Conns reports the number of currently live tracked connections — a
// leak gauge for long soaks.
func (n *Network) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

func (n *Network) track(c net.Conn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

func (n *Network) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Partition opens (true) or heals (false) a hard partition. Opening severs
// every tracked connection immediately.
func (n *Network) Partition(active bool) {
	n.downMu.Lock()
	n.down = active
	n.downMu.Unlock()
	if active {
		n.mu.Lock()
		conns := make([]net.Conn, 0, len(n.conns))
		for c := range n.conns {
			conns = append(conns, c)
		}
		n.conns = make(map[net.Conn]struct{})
		n.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

func (n *Network) partitioned() bool {
	n.downMu.Lock()
	defer n.downMu.Unlock()
	return n.down
}

// Dialer wraps base with this network's faults. base nil means plain TCP.
func (n *Network) Dialer(base func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if base == nil {
		base = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	return func(addr string) (net.Conn, error) {
		if n.partitioned() {
			return nil, errors.New("chaos: network partitioned")
		}
		n.mu.Lock()
		refuse := n.dialFail > 0 && n.rng.Float64() < n.dialFail
		n.mu.Unlock()
		if refuse {
			return nil, errors.New("chaos: dial refused")
		}
		conn, err := base(addr)
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: conn, net: n}
		n.track(fc)
		return fc, nil
	}
}

// faultConn severs itself probabilistically on writes and reads.
type faultConn struct {
	net.Conn
	net  *Network
	dead bool
	mu   sync.Mutex
}

// die marks the conn dead, prunes it from the network's tracking map, and
// closes the underlying conn.
func (c *faultConn) die() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.net.untrack(c)
	c.Conn.Close()
}

// Close prunes the conn from tracking before closing it, so gracefully
// closed conns don't linger in the gauge either.
func (c *faultConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.net.untrack(c)
	return c.Conn.Close()
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead || c.net.partitioned() {
		c.die()
		return 0, errors.New("chaos: connection cut")
	}
	c.net.mu.Lock()
	cut := c.net.cutProb > 0 && c.net.rng.Float64() < c.net.cutProb
	c.net.mu.Unlock()
	if cut {
		// Deliver the doomed write, then sever: the peer processes the
		// message but its response has nowhere to go — the paper's
		// lost-reply case (Section 2).
		written, _ := c.Conn.Write(p)
		c.die()
		return written, errors.New("chaos: connection cut")
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead || c.net.partitioned() {
		c.die()
		return 0, errors.New("chaos: connection cut")
	}
	c.net.mu.Lock()
	cut := c.net.readCut > 0 && c.net.rng.Float64() < c.net.readCut
	c.net.mu.Unlock()
	if cut {
		// Sever without delivering: whatever the peer sent is lost in
		// transit — the reply-lost case, independent of the write path.
		c.die()
		return 0, errors.New("chaos: connection cut")
	}
	nr, err := c.Conn.Read(p)
	if nr > 0 {
		// Latency injection applies only to delivered bytes: the data is
		// in hand, then held in "transit" before the caller sees it. Reads
		// that block waiting for the peer are not additionally penalized,
		// and errored reads fail fast.
		c.net.mu.Lock()
		d := c.net.delay
		if c.net.stragProb > 0 && c.net.rng.Float64() < c.net.stragProb {
			d += c.net.stragDelay
		}
		if d > 0 {
			c.net.delays++
		}
		c.net.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
	}
	return nr, err
}
