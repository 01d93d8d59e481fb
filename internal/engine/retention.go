package engine

import (
	"slices"

	"ezbft/internal/types"
	"ezbft/internal/workload"
)

// ReplyRetention is how far behind a client's highest seen timestamp a
// replica keeps that client's per-request bookkeeping (cached reply,
// request→log-position mapping, exactly-once memo) once the log entry
// behind it is gone. It is the replicas' half of workload.PipelineWindow:
// clients keep their outstanding timestamps within that span
// (workload.Outstanding), so a retransmission of an in-flight request still
// finds its reply, or is admitted, instead of falling below the window.
const ReplyRetention = workload.PipelineWindow

// RequestWindow is the per-client timestamp window every protocol's
// per-request bookkeeping hangs off. It keeps one contract in one place:
// a request's bookkeeping stays available for at least ReplyRetention
// timestamps behind its client's highest, and at least until its log entry
// is truncated — and not longer. The protocol reports each timestamp it
// sees (Seen) and each request whose entry it truncates (Truncated); the
// window calls release exactly when both conditions have passed, whichever
// comes last. A request truncated while still inside the window waits in a
// per-client queue, in timestamp order, and is released as that client's
// highest timestamp moves on.
//
// The same window answers the admission question (Below): nothing of a
// request below it is guaranteed to be left, so a replica that ordered it
// again would execute it a second time. The paper drops requests whose
// timestamp is not above the client's last; pipelining widens that rule to
// the window.
//
// A RequestWindow belongs to one replica and is touched only from its loop.
type RequestWindow struct {
	release func(types.ClientID, uint64)
	clients map[types.ClientID]*clientWindow
}

type clientWindow struct {
	highest uint64
	// waiting holds, ascending and without repeats, the timestamps whose
	// entries were truncated while still inside the window; at most
	// ReplyRetention of them, since every one lies within that distance of
	// highest.
	waiting []uint64
}

// NewRequestWindow returns an empty window. release drops whatever the
// protocol keeps for one request; it may be called for a request whose
// bookkeeping is already gone.
func NewRequestWindow(release func(client types.ClientID, ts uint64)) *RequestWindow {
	return &RequestWindow{release: release, clients: make(map[types.ClientID]*clientWindow)}
}

// Seen records a timestamp of the client's that the protocol accepted and
// releases the truncated requests it pushes out of the window.
func (w *RequestWindow) Seen(client types.ClientID, ts uint64) {
	cw := w.client(client)
	if ts <= cw.highest {
		return
	}
	cw.highest = ts
	n := 0
	for n < len(cw.waiting) && cw.waiting[n]+ReplyRetention <= ts {
		w.release(client, cw.waiting[n])
		n++
	}
	cw.waiting = cw.waiting[n:]
}

// Below reports whether the timestamp lies below the client's window.
func (w *RequestWindow) Below(client types.ClientID, ts uint64) bool {
	cw := w.clients[client]
	return cw != nil && ts+ReplyRetention <= cw.highest
}

// Truncated reports that the log entry ordering the request is gone: its
// bookkeeping is released now if the request is below the window, and when
// the window passes it otherwise.
func (w *RequestWindow) Truncated(client types.ClientID, ts uint64) {
	if w.Below(client, ts) {
		w.release(client, ts)
		return
	}
	cw := w.client(client)
	if i, found := slices.BinarySearch(cw.waiting, ts); !found {
		cw.waiting = slices.Insert(cw.waiting, i, ts)
	}
}

// client returns the client's window record, creating it on first use.
func (w *RequestWindow) client(client types.ClientID) *clientWindow {
	cw := w.clients[client]
	if cw == nil {
		cw = &clientWindow{}
		w.clients[client] = cw
	}
	return cw
}
