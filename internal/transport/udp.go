package transport

import (
	"fmt"
	"net"
	"sync"
)

// UDP is a Transport over a real UDP socket. It is used by cmd/pier
// for multi-process deployments; large in-process experiments use
// internal/simnet instead.
type UDP struct {
	conn *net.UDPConn
	addr string

	mu      sync.Mutex
	handler Handler
	closed  bool
	wg      sync.WaitGroup
}

// ListenUDP opens a UDP endpoint on addr ("127.0.0.1:0" for an
// ephemeral port).
func ListenUDP(addr string) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
	u := &UDP{conn: conn, addr: conn.LocalAddr().String()}
	u.wg.Add(1)
	go u.readLoop()
	return u, nil
}

// Addr returns the bound local address.
func (u *UDP) Addr() string { return u.addr }

// SetHandler installs the inbound handler.
func (u *UDP) SetHandler(h Handler) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.handler = h
}

// Send transmits one datagram.
func (u *UDP) Send(addr string, payload []byte) error {
	u.mu.Lock()
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if len(payload) > MaxDatagram {
		return fmt.Errorf("transport: %d-byte payload exceeds MaxDatagram", len(payload))
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	if _, err := u.conn.WriteToUDP(payload, ua); err != nil {
		return fmt.Errorf("transport: send to %s: %w", addr, err)
	}
	return nil
}

// Close shuts the socket down and waits for the read loop to exit.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, MaxDatagram+1)
	for {
		n, from, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		u.mu.Lock()
		h := u.handler
		u.mu.Unlock()
		if h == nil || n > MaxDatagram {
			continue
		}
		msg := make([]byte, n) // the handler owns it (Handler)
		copy(msg, buf[:n])
		h(from.String(), msg)
	}
}
