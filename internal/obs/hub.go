package obs

import "sync"

// Hub is a broadcast fan-out for live telemetry: one publisher side,
// any number of subscribers, drop-and-count semantics. The subscriber
// set is owned by a single dispatch goroutine and every delivery is a
// non-blocking send into the subscriber's bounded buffer, so a stuck
// consumer (an SSE client that stopped reading) loses its own events
// — each loss fires the onDrop callback — and can never backpressure
// the publisher.
//
// The dispatch goroutine is channel-confined: it writes nothing it
// captured, it only receives commands and forwards values over the
// hub's channels, and Close joins it by closing done (which also
// closes every subscriber channel, ending their streams cleanly).
type Hub[T any] struct {
	pub    chan T
	sub    chan chan T
	leave  chan chan T
	done   chan struct{}
	closer sync.Once

	subBuf int
	onDrop func()
}

// NewHub starts a hub whose subscriber channels buffer subBuf values
// (<= 0 defaults to 256). onDrop, if non-nil, fires once per dropped
// delivery — the service wires its events.dropped counter here.
func NewHub[T any](subBuf int, onDrop func()) *Hub[T] {
	if subBuf <= 0 {
		subBuf = 256
	}
	h := &Hub[T]{
		pub:    make(chan T, 64),
		sub:    make(chan chan T),
		leave:  make(chan chan T),
		done:   make(chan struct{}),
		subBuf: subBuf,
		onDrop: onDrop,
	}
	go func() {
		subs := make(map[chan T]bool)
		deliver := func(v T) {
			for ch := range subs {
				select {
				case ch <- v:
				default:
					if h.onDrop != nil {
						h.onDrop()
					}
				}
			}
		}
		for {
			select {
			case v := <-h.pub:
				deliver(v)
			case ch := <-h.sub:
				subs[ch] = true
			case ch := <-h.leave:
				if subs[ch] {
					delete(subs, ch)
					close(ch)
				}
			case <-h.done:
				// Flush events accepted before Close so a Publish that
				// returned true is never silently lost, then end every
				// subscriber's stream.
				for {
					select {
					case v := <-h.pub:
						deliver(v)
					default:
						for ch := range subs {
							close(ch)
						}
						return
					}
				}
			}
		}
	}()
	return h
}

// Publish delivers v to every current subscriber and reports whether
// the hub was still open. It may wait for the dispatch goroutine's
// (bounded, subscriber-independent) hand-off but never for a
// subscriber: slow consumers drop, they do not block.
func (h *Hub[T]) Publish(v T) bool {
	if h == nil {
		return false
	}
	select {
	case <-h.done:
		return false
	default:
	}
	select {
	case h.pub <- v:
		return true
	case <-h.done:
		return false
	}
}

// Subscribe registers a new subscriber with the hub's default buffer
// and returns its channel plus a cancel function (idempotent; safe
// after Close). The channel closes on cancel or when the hub closes.
// On an already-closed hub the returned channel is closed immediately.
func (h *Hub[T]) Subscribe() (<-chan T, func()) {
	return h.SubscribeBuf(h.subBuf)
}

// SubscribeBuf is Subscribe with an explicit buffer capacity (<= 0
// uses the hub default): how far this consumer may fall behind before
// deliveries to it drop.
func (h *Hub[T]) SubscribeBuf(n int) (<-chan T, func()) {
	if n <= 0 {
		n = h.subBuf
	}
	ch := make(chan T, n)
	select {
	case h.sub <- ch:
	case <-h.done:
		close(ch)
		return ch, func() {}
	}
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			select {
			case h.leave <- ch:
			case <-h.done:
			}
		})
	}
	return ch, cancel
}

// Close shuts the hub down: the dispatch goroutine exits after
// closing every subscriber channel, and subsequent Publish calls
// return false. Safe to call more than once and on a nil hub.
func (h *Hub[T]) Close() {
	if h == nil {
		return
	}
	h.closer.Do(func() { close(h.done) })
}
