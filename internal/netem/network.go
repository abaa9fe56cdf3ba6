package netem

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Network is an emulated internet: listeners register under string
// addresses ("host:port"), and Interfaces dial them through shaped paths.
type Network struct {
	clock *Clock

	mu        sync.Mutex
	listeners map[string]*Listener
	// partitions maps an interface-group name ("wifi", "lte") to the set
	// of listener addresses its clients cannot currently reach. Both
	// sides stay alive — unlike a kill or an interface-down event — but
	// dials fail instantly with ErrPartitioned and established
	// connections across the cut are aborted at the onset instant.
	partitions map[string]map[string]bool
}

// NewNetwork creates an empty emulated network driven by clock.
func NewNetwork(clock *Clock) *Network {
	return &Network{
		clock:     clock,
		listeners: make(map[string]*Listener),
	}
}

// Clock returns the network's time source.
func (n *Network) Clock() *Clock { return n.clock }

// Listen registers a listener at addr (e.g. "video1.wifi.test:80").
// ExtraDelay is added to the one-way delay of every path reaching this
// listener, modelling server distance from the access network.
func (n *Network) Listen(addr string, extraDelay time.Duration) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("netem: address %s already in use", addr)
	}
	l := &Listener{
		network:    n,
		addr:       Addr(addr),
		extraDelay: extraDelay,
	}
	n.listeners[addr] = l
	return l, nil
}

// SetPartitioned cuts (or heals) reachability from the interface group
// named group — every Interface whose name is group — to the listener
// at addr, while both sides stay up. While partitioned, dials from the
// group to addr fail instantly with ErrPartitioned (no handshake time
// is burned), and at the onset instant every established connection
// between the group and addr is aborted with ErrPartitioned. Healing
// restores dials only; aborted connections stay dead, as after a real
// partition.
func (n *Network) SetPartitioned(group, addr string, on bool) {
	n.mu.Lock()
	if n.partitions == nil {
		n.partitions = make(map[string]map[string]bool)
	}
	set := n.partitions[group]
	if on {
		if set == nil {
			set = make(map[string]bool)
			n.partitions[group] = set
		}
		set[addr] = true
	} else if set != nil {
		delete(set, addr)
	}
	l := n.listeners[addr]
	n.mu.Unlock()
	if on && l != nil {
		// Client local addresses are rendered "<group>:<port>", so the
		// peer-address prefix identifies the cut side.
		l.abortFrom(group+":", ErrPartitioned)
	}
}

// partitioned reports whether dials from group to addr are cut.
func (n *Network) partitioned(group, addr string) bool {
	return n.partitions[group][addr]
}

// Interface models a client network attachment (WiFi or LTE): its access
// link dominates the path, as in the paper's testbed.
type Interface struct {
	network *Network
	name    string
	srcAddr Addr
	up      LinkParams // client → server
	down    LinkParams // server → client

	mu    sync.Mutex
	alive bool
	conns map[*Conn]struct{}

	dialSeq int
}

// NewInterface attaches an interface named name (also used as the local
// address) with the given access-link shaping.
func (n *Network) NewInterface(name string, up, down LinkParams) *Interface {
	return &Interface{
		network: n,
		name:    name,
		srcAddr: Addr(name),
		up:      up,
		down:    down,
		alive:   true,
		conns:   make(map[*Conn]struct{}),
	}
}

// Name returns the interface name ("wifi", "lte", ...).
func (i *Interface) Name() string { return i.name }

// Network returns the emulated network the interface is attached to.
func (i *Interface) Network() *Network { return i.network }

// Alive reports whether the interface currently has connectivity.
func (i *Interface) Alive() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.alive
}

// SetAlive toggles connectivity. Taking an interface down aborts every
// established connection with ErrInterfaceDown and fails future dials
// until connectivity returns, emulating mobility.
func (i *Interface) SetAlive(alive bool) {
	i.mu.Lock()
	i.alive = alive
	var toAbort []*Conn
	if !alive {
		for c := range i.conns { //detlint:allow maprange -- conn aborts commute: all land at the same pinned virtual instant
			toAbort = append(toAbort, c)
		}
		i.conns = make(map[*Conn]struct{})
	}
	i.mu.Unlock()
	for _, c := range toAbort {
		c.Abort(ErrInterfaceDown)
	}
}

// connect completes a dial from i to l whose handshake has elapsed: it
// builds the pair and registers the client endpoint with i, so that
// interface loss aborts it, and the server endpoint with l. Each
// endpoint's close hook releases what it registered (see Listener).
func (i *Interface) connect(l *Listener, addr string, seq int, up, down LinkParams) (*Conn, error) {
	local := Addr(fmt.Sprintf("%s:%d", i.name, 40000+seq))
	client, server := Pipe(i.network.clock, up, down, local, Addr(addr))
	client.onClose = func() {
		i.forget(client)
		l.release(server)
	}
	server.onClose = func() { l.release(server) }

	i.mu.Lock()
	if !i.alive {
		i.mu.Unlock()
		client.Abort(ErrInterfaceDown)
		return nil, ErrInterfaceDown
	}
	i.conns[client] = struct{}{}
	i.mu.Unlock()

	if err := l.deliver(server); err != nil {
		client.Abort(err)
		return nil, err
	}
	return client, nil
}

func (i *Interface) forget(c *Conn) {
	i.mu.Lock()
	delete(i.conns, c)
	i.mu.Unlock()
}

// Listener accepts emulated connections: each completed dial hands its
// server endpoint to the callback installed with OnAcceptable, at the
// instant the dial's handshake round trip ends.
//
// A listener holds the server endpoint of every connection it delivered
// until the connection's second endpoint closes, because until then a
// kill (Close) or a partition sweep may still cut it. After both
// closes each direction carries an abort at or before the later close,
// so under AbortAt's earliest-wins rule any later sweep would be a
// no-op: forgetting the pair is unobservable, and a listener's memory
// follows the connections open on it, not every connection it ever
// accepted. A server that closes while its client is still reading the
// response keeps the pair: a kill then still drops the response's
// in-flight segments.
type Listener struct {
	network    *Network
	addr       Addr
	extraDelay time.Duration

	mu     sync.Mutex
	accept func(*Conn)
	closed bool
	conns  map[*Conn]struct{} // server endpoints a sweep may still cut
}

// OnAcceptable installs fn as the listener's accept callback. fn
// receives the server endpoint of every connection dialed to the
// listener from then on, at the connect instant, on the clock's
// driver, before the dialer's own callback runs. Like every readiness
// callback it must not park: arm the endpoint's callbacks and return. A
// connection completed while no callback is installed is established
// but never served, like a socket in a listen backlog nobody accepts.
func (l *Listener) OnAcceptable(fn func(*Conn)) {
	l.mu.Lock()
	l.accept = fn
	l.mu.Unlock()
}

func (l *Listener) deliver(c *Conn) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrServerDown
	}
	if l.conns == nil {
		l.conns = make(map[*Conn]struct{})
	}
	l.conns[c] = struct{}{}
	accept := l.accept
	l.mu.Unlock()
	if accept != nil {
		accept(c)
	}
	return nil
}

// release forgets the pair served by srv once both of its endpoints
// have closed. Each endpoint's Close calls it after closing its own
// write side, so whichever close comes second sees both sides closed.
func (l *Listener) release(srv *Conn) {
	if !srv.in.writerClosed() || !srv.out.writerClosed() {
		return
	}
	l.mu.Lock()
	delete(l.conns, srv)
	l.mu.Unlock()
}

// abortFrom aborts every established connection on this listener whose
// peer address begins with prefix, all at the caller's current virtual
// instant (the partition-onset sweep).
func (l *Listener) abortFrom(prefix string, err error) {
	l.mu.Lock()
	var toAbort []*Conn
	for c := range l.conns { //detlint:allow maprange -- conn aborts commute: all land at the same pinned virtual instant
		if strings.HasPrefix(string(c.remote), prefix) {
			toAbort = append(toAbort, c)
		}
	}
	l.mu.Unlock()
	for _, c := range toAbort {
		c.Abort(err)
	}
}

// Close stops accepting. It also aborts established connections
// with ErrServerDown, emulating a server crash, and deregisters the
// address so it can be reused.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.accept = nil
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()

	l.network.mu.Lock()
	delete(l.network.listeners, string(l.addr))
	l.network.mu.Unlock()

	for c := range conns {
		c.Abort(ErrServerDown)
	}
	return nil
}
