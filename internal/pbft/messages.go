// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI 1999), the baseline three-phase primary-based BFT protocol
// the paper compares against: REQUEST → PRE-PREPARE → PREPARE (all-to-all)
// → COMMIT (all-to-all) → REPLY, five client-visible communication steps.
// Replicas prepare with 2f matching PREPAREs and commit with 2f+1 COMMITs;
// clients accept f+1 matching replies. Checkpoints garbage-collect the log
// (checkpoint.go), and the view change that deposes a faulty primary is the
// engine's (internal/engine/viewchange.go): a prepared slot's 2f PREPAREs
// are its certificate, and the new view prepares and commits the carried
// slots again.
package pbft

import (
	"ezbft/internal/engine"
)

// Message tags reserved by PBFT (30-39, plus 60 from the shared
// batched-baseline block 60-69; 35, 38 and 39 are the log-lifecycle
// messages in checkpoint.go, 36 and 37 the engine's view-change pair).
const (
	tagRequest    = 30
	tagPrePrepare = 31
	tagPrepare    = 32
	tagCommit     = 33
	tagReply      = 34
	// tagPrePrepareBatch is the PRE-PREPARE layout for primary-side batches
	// of ≥ 2 requests; batches of one keep tag 31 and its exact byte layout.
	tagPrePrepareBatch = 60
)

// maxBatch bounds the requests decoded per batched PRE-PREPARE.
const maxBatch = 4096

// PBFT's instances of the engine's shared message shapes.
type (
	requestTag struct{}
	prepareTag struct{}
	commitTag  struct{}
	replyTag   struct{}
)

func (requestTag) Tag() uint8                { return tagRequest }
func (requestTag) FrameTags() (uint8, uint8) { return tagPrePrepare, tagPrePrepareBatch }
func (prepareTag) Tag() uint8                { return tagPrepare }
func (commitTag) Tag() uint8                 { return tagCommit }
func (replyTag) Tag() uint8                  { return tagReply }

// Request is the client's signed command submission.
type Request = engine.Request[requestTag]

// PrePrepare is the primary's ordering proposal ⟨PRE-PREPARE, v, n, d⟩σp, m;
// a batch of ≥ 2 requests travels under tagPrePrepareBatch.
type PrePrepare = engine.Proposal[requestTag]

// Prepare is a backup's agreement vote ⟨PREPARE, v, n, d, i⟩σi.
type Prepare = engine.Vote[prepareTag]

// Commit is a replica's commit vote ⟨COMMIT, v, n, d, i⟩σi.
type Commit = engine.Vote[commitTag]

// Reply carries the execution result to the client ⟨REPLY, v, t, c, i, r⟩σi.
type Reply = engine.Reply[replyTag]

// viewTags are PBFT's view-change tags: a VIEW-CHANGE carries PRE-PREPAREs
// and PREPARE certificates.
var viewTags = engine.ViewTags{
	ViewChange: 36, NewView: 37,
	Frames: []uint8{tagPrePrepare, tagPrePrepareBatch}, Votes: []uint8{tagPrepare},
}

func init() {
	engine.RegisterRequest[requestTag]("pbft")
	engine.RegisterVote[prepareTag]("pbft", "Prepare")
	engine.RegisterVote[commitTag]("pbft", "Commit")
	engine.RegisterReply[replyTag]("pbft")
	engine.RegisterProposal[requestTag]("pbft", "PrePrepare", maxBatch)
	engine.RegisterViewMessages("pbft", viewTags, logTags.Checkpoint)
}
