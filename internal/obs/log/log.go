// Package log is the event-logging pillar of the observability substrate:
// a leveled, structured (key/value) logger built for a system whose hot
// paths are measured in nanoseconds.
//
// Counters (package obs) aggregate, traces (package obs/trace) follow one
// request; events record *what happened* — recovery found a torn segment,
// a queue diverted an element to its error queue, the group-commit writer
// poisoned itself — with enough structure that an operator (or the flight
// recorder, package obs/flight) can filter and correlate them afterwards.
//
// The design contract, in order:
//
//   - Zero cost when silent. A call below the logger's level is one nil
//     check plus one atomic load and must not allocate: fields are plain
//     structs passed variadically, and the logger only ever copies their
//     values, so the compiler keeps the argument slice on the caller's
//     stack. TestDisabledLogZeroAllocs pins this.
//   - Events are values. An emitted Event is self-contained (fixed field
//     array, no pointers into caller state), so sinks may retain copies
//     forever — the flight recorder's ring does exactly that.
//   - Sinks are pluggable and independent: a WriterSink renders JSON or
//     text lines (one write per event, under its own mutex), a Ring keeps
//     the last N events in memory for post-mortems. A logger fans out to
//     any number of them via one atomic pointer load.
//   - Trace correlation is a field: log.Trace(ref) stamps the event with
//     the request's trace/span IDs so an event line can be joined against
//     the span tree that produced it.
//
// A nil *Logger is a valid disabled logger: every method no-ops, so
// libraries thread loggers without guards.
package log

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Level classifies an event's severity. Levels order Debug < Info < Warn
// < Error; a logger emits events at or above its configured level.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// LevelOff silences the logger entirely.
	LevelOff
)

// String renders the level as its lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// MarshalJSON renders the level as its lowercase name, matching the JSON
// sink's "level" key.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// UnmarshalJSON accepts a level name as rendered by String, so emitted
// event documents (GET /logs, flight dumps) decode back into Events.
func (l *Level) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// ParseLevel parses a level name as rendered by String.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	default:
		return LevelInfo, fmt.Errorf("log: unknown level %q", s)
	}
}

// fieldKind discriminates a Field's value.
type fieldKind uint8

const (
	kindInt64 fieldKind = iota
	kindUint64
	kindString
	kindBool
	kindDuration
	kindTrace // consumed by the logger: stamps Event.Trace/Span
)

// Field is one structured key/value annotation. Fields are plain values:
// constructing one never allocates (except Err, which renders the error),
// so guarded-out log calls are free.
type Field struct {
	Key  string
	kind fieldKind
	num  int64
	str  string
}

// Str builds a string field.
func Str(key, v string) Field { return Field{Key: key, kind: kindString, str: v} }

// Int builds an integer field.
func Int(key string, v int) Field { return Field{Key: key, kind: kindInt64, num: int64(v)} }

// Int64 builds an int64 field.
func Int64(key string, v int64) Field { return Field{Key: key, kind: kindInt64, num: v} }

// Uint64 builds a uint64 field.
func Uint64(key string, v uint64) Field {
	return Field{Key: key, kind: kindUint64, num: int64(v)}
}

// Bool builds a boolean field.
func Bool(key string, v bool) Field {
	var n int64
	if v {
		n = 1
	}
	return Field{Key: key, kind: kindBool, num: n}
}

// Dur builds a duration field (rendered as nanoseconds in JSON, as a
// time.Duration string in text).
func Dur(key string, d time.Duration) Field {
	return Field{Key: key, kind: kindDuration, num: int64(d)}
}

// Err builds an "err" field from an error. Unlike the other constructors
// it allocates (the error renders to a string), so use it on failure
// paths, not guarded hot paths.
func Err(err error) Field {
	if err == nil {
		return Field{Key: "err", kind: kindString, str: "<nil>"}
	}
	return Field{Key: "err", kind: kindString, str: err.Error()}
}

// Trace builds a correlation field from a trace ref: the logger lifts it
// out of the field list and stamps the event's Trace/Span instead. An
// invalid ref yields an inert field.
func Trace(ref trace.Ref) Field {
	if !ref.Valid() {
		return Field{kind: kindTrace}
	}
	return Field{kind: kindTrace, str: string(ref.Trace[:]), num: int64(ref.Span)}
}

// MaxFields is the number of fields one event retains; extra fields are
// dropped (a wiring bug, not a runtime condition — call sites are static).
const MaxFields = 12

// Event is one emitted log event. It is a self-contained value — sinks
// may copy and retain it indefinitely.
type Event struct {
	// Seq is a ring-assigned total-order stamp (0 until a Ring sees the
	// event); Time is wall-clock UnixNano at emission. The json tags
	// mirror AppendJSON's keys so emitted documents decode back.
	Seq  uint64 `json:"seq"`
	Time int64  `json:"ts"`
	// Level, Sub, and Msg are the event's severity, emitting subsystem
	// ("wal", "queue.recovery", …), and human message.
	Level Level  `json:"level"`
	Sub   string `json:"sub"`
	Msg   string `json:"msg"`
	// Trace/Span correlate the event with a request's span tree; zero
	// when the event is not request-scoped.
	Trace trace.ID     `json:"trace"`
	Span  trace.SpanID `json:"span"`
	// Fields[:NField] are the structured annotations.
	NField int              `json:"-"`
	Fields [MaxFields]Field `json:"-"`
}

// Sink consumes emitted events. Emit may be called concurrently; the
// *Event is only valid for the duration of the call — retain a copy of
// the value, never the pointer.
type Sink interface {
	Emit(e *Event)
}

// lcore is the state shared by a logger and its Named children.
type lcore struct {
	level atomic.Int32
	sinks atomic.Pointer[[]Sink]
	mu    sync.Mutex // guards sink-list replacement

	// counters[level] counts emitted events per level; private counters
	// when no registry was supplied.
	counters [4]*obs.Counter
}

// Logger emits structured events to its sinks. Loggers are cheap handles
// over shared state: Named derives subsystem-scoped children that share
// the level and sink list. A nil *Logger is a valid disabled logger.
type Logger struct {
	c   *lcore
	sub string
}

// New returns a logger at the given level fanning out to sinks. reg, when
// non-nil, receives log.events{level=…} counters.
func New(level Level, reg *obs.Registry, sinks ...Sink) *Logger {
	c := &lcore{}
	c.level.Store(int32(level))
	s := append([]Sink(nil), sinks...)
	c.sinks.Store(&s)
	for lv := LevelDebug; lv <= LevelError; lv++ {
		if reg != nil {
			c.counters[lv] = reg.Counter("log.events", "level", lv.String())
		} else {
			c.counters[lv] = &obs.Counter{}
		}
	}
	return &Logger{c: c}
}

// Named derives a child logger whose events carry the given subsystem
// name (joined with "." onto the parent's). Safe on nil.
func (l *Logger) Named(sub string) *Logger {
	if l == nil {
		return nil
	}
	if l.sub != "" {
		sub = l.sub + "." + sub
	}
	return &Logger{c: l.c, sub: sub}
}

// SetLevel changes the emission threshold for this logger and everything
// sharing its core (parent and Named children). Safe on nil.
func (l *Logger) SetLevel(level Level) {
	if l != nil {
		l.c.level.Store(int32(level))
	}
}

// Level returns the current emission threshold (LevelOff on nil).
func (l *Logger) Level() Level {
	if l == nil {
		return LevelOff
	}
	return Level(l.c.level.Load())
}

// Enabled reports whether an event at level would be emitted — the guard
// for call sites whose field construction is itself expensive.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.c.level.Load())
}

// AddSink attaches another sink (copy-on-write; emitters never block on
// the swap). Safe on nil.
func (l *Logger) AddSink(s Sink) {
	if l == nil || s == nil {
		return
	}
	l.c.mu.Lock()
	old := *l.c.sinks.Load()
	next := make([]Sink, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, s)
	l.c.sinks.Store(&next)
	l.c.mu.Unlock()
}

// Debug emits a debug-level event.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info emits an info-level event.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn emits a warn-level event.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error emits an error-level event.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

// log is the single emission path. The fields slice is only read and its
// values copied — it never escapes, so disabled calls cost the level
// check alone and allocate nothing.
func (l *Logger) log(level Level, msg string, fields []Field) {
	if l == nil || level < Level(l.c.level.Load()) || level >= LevelOff {
		return
	}
	var e Event
	e.Time = time.Now().UnixNano()
	e.Level = level
	e.Sub = l.sub
	e.Msg = msg
	n := 0
	for i := range fields {
		f := &fields[i]
		if f.kind == kindTrace {
			if len(f.str) == len(e.Trace) {
				copy(e.Trace[:], f.str)
				e.Span = trace.SpanID(f.num)
			}
			continue
		}
		if n < MaxFields {
			e.Fields[n] = *f
			n++
		}
	}
	e.NField = n
	for _, s := range *l.c.sinks.Load() {
		s.Emit(&e)
	}
	l.c.counters[level].Inc()
}
