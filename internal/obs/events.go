package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event severities.
const (
	SevInfo = "info"
	SevWarn = "warn"
)

// Event kinds emitted across the stack.
const (
	EvQueryAdmitted  = "query-admitted"
	EvQueryCompleted = "query-completed"
	EvQueryDegraded  = "query-degraded"
	EvSlowQuery      = "slow-query"
	EvSuspectRaised  = "suspicion-raised"
	EvSuspectCleared = "suspicion-cleared"
	EvSpillStarted   = "spill-started"
	EvAutoAnalyze    = "auto-analyze"
	EvRowsUnacked    = "rows-unacked"
)

// Event is one structured entry in the node's event ring.
type Event struct {
	Time     time.Time `json:"time"`
	Severity string    `json:"severity"`
	Kind     string    `json:"kind"`
	Query    uint64    `json:"query,omitempty"`
	Msg      string    `json:"msg"`
}

// EventLog is a fixed-size structured ring of recent events. Writes
// never block or allocate beyond the ring; old entries are overwritten
// oldest-first. All methods are nil-safe.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// NewEventLog builds a ring holding the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Emit appends an event; format args are applied to msg when present.
func (l *EventLog) Emit(severity, kind string, query uint64, msg string, args ...any) {
	if l == nil {
		return
	}
	if len(args) > 0 {
		msg = fmt.Sprintf(msg, args...)
	}
	ev := Event{Time: time.Now(), Severity: severity, Kind: kind, Query: query, Msg: msg}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
	} else {
		l.buf[l.next] = ev
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.total++
	l.mu.Unlock()
}

// Total reports how many events were ever emitted (including those
// the ring has since overwritten).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot copies the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		out = append(out, l.buf...)
		return out
	}
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}
