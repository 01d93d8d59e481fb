package workload

// PipelineWindow is the contract between a pipelining client and the
// replicas: a client never has two timestamps PipelineWindow or more apart
// outstanding at once, and a replica keeps what recognises a request (cached
// reply, log-position mapping, exactly-once memo) for at least
// PipelineWindow timestamps behind the client's newest, dropping a REQUEST
// from further back (engine.ReplyRetention, engine.RequestWindow). Without
// the client's half a request that needs re-admission — a retry broadcast to
// replicas that missed its proposal, a forwarded RESENDREQ, a reordered
// first delivery — could fall below every replica's window while its client
// still waits for it.
const PipelineWindow = 256

// Outstanding tracks the timestamps one client has submitted and not yet
// seen complete, so that a driver which pipelines can keep the client's half
// of the PipelineWindow contract: ask Room before every Submit, report the
// timestamp Submit returned with Add, and report each completion with
// Remove. The bound is on the span from the oldest outstanding timestamp to
// the newest, not on the count — one request that is slow to commit holds
// back the 256th after it however many in between have completed.
//
// Protocol clients number their requests consecutively and a driver that
// honours Room keeps them within one window, so membership is a ring of
// PipelineWindow flags. The zero value is ready to use.
type Outstanding struct {
	open   [PipelineWindow]bool // open[ts%PipelineWindow]: ts is outstanding
	n      int                  // timestamps outstanding
	oldest uint64               // lowest outstanding timestamp (n > 0)
	newest uint64               // highest timestamp submitted
}

// Room reports whether the client's next timestamp stays within
// PipelineWindow of its oldest outstanding one.
func (o *Outstanding) Room() bool {
	return o.n == 0 || o.newest+1-o.oldest < PipelineWindow
}

// Add records a submitted timestamp. Timestamps arrive in increasing order
// and only while there is Room: the ring cannot tell apart two outstanding
// timestamps a window or more apart.
func (o *Outstanding) Add(ts uint64) {
	if o.n == 0 {
		o.oldest = ts
	}
	o.n++
	o.newest = ts
	o.open[ts%PipelineWindow] = true
}

// Remove records a completion. A timestamp that is not outstanding (a
// duplicate completion, or one submitted past this tracker) is ignored.
func (o *Outstanding) Remove(ts uint64) {
	if o.n == 0 || ts < o.oldest || ts > o.newest || !o.open[ts%PipelineWindow] {
		return
	}
	o.open[ts%PipelineWindow] = false
	o.n--
	for o.oldest < o.newest && !o.open[o.oldest%PipelineWindow] {
		o.oldest++
	}
}
