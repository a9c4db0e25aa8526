package engine

import (
	"encoding/hex"
	"encoding/json"
	"log"
	"time"

	"repro/internal/journal"
)

// DefaultJournalCompactInterval is the background compaction period when
// Options.JournalDir is set and Options.JournalCompactInterval is zero.
const DefaultJournalCompactInterval = 5 * time.Minute

// openJournal opens (and recovers) the durable job journal and replays it
// into the result cache. The journal is the engine's only durable state:
// every cache insert appends to it before the result is published, so a
// process killed at any point warm-starts with every result it ever
// acknowledged that compaction's retention limits still keep.
//
// A journal that cannot be opened is fatal for durability, but it is
// logged and the engine runs in memory rather than taking the service
// down.
func (e *Engine) openJournal() {
	j, err := journal.Open(e.opt.JournalDir, journal.Options{
		SegmentBytes: e.opt.JournalSegmentBytes,
		MaxAge:       e.opt.JournalMaxAge,
		MaxRecords:   e.opt.JournalMaxRecords,
		Metrics:      e.met.reg,
	})
	if err != nil {
		log.Printf("engine: opening journal in %s: %v (running WITHOUT durability)", e.opt.JournalDir, err)
		return
	}
	e.journal = j
	n := 0
	err = j.Replay(0, func(rec journal.Record) error {
		if journal.IsMetaKey(rec.Key) {
			// Cluster coordination records ride the journal but never the
			// result cache. Replay is oldest-first, so the last lease seen
			// is the newest claim this member knew before it stopped.
			if string(rec.Key) == string(journal.MetaKey(journal.LeaseKind)) {
				var claim leaseClaim
				if jerr := json.Unmarshal(rec.Value, &claim); jerr != nil {
					log.Printf("engine: journal lease record %d undecodable: %v (skipped)", rec.Seq, jerr)
				} else {
					e.recoveredLease = &claim
				}
			}
			return nil
		}
		var r JobResult
		if jerr := json.Unmarshal(rec.Value, &r); jerr != nil {
			// A record that framed correctly but doesn't decode is from
			// an incompatible build; skip it rather than refuse to start.
			log.Printf("engine: journal record %d undecodable: %v (skipped)", rec.Seq, jerr)
			return nil
		}
		e.cache.Put(string(rec.Key), canonicalResult(r))
		n++
		return nil
	})
	if err != nil {
		log.Printf("engine: replaying journal: %v", err)
	}
	if n > 0 {
		log.Printf("engine: replayed %d journaled results from %s (journal seq %d)",
			n, e.opt.JournalDir, j.LastSeq())
	}
	interval := e.opt.JournalCompactInterval
	if interval == 0 {
		interval = DefaultJournalCompactInterval
	}
	if interval > 0 {
		e.compactStop = make(chan struct{})
		e.compactWG.Add(1)
		go e.compactLoop(interval)
	}
}

// journalAppend durably records one finished result under its canonical
// spec-hash key. It runs on the worker goroutine after the cache insert
// and before the result is published, so an acknowledged result is always
// recoverable. Append failures cost durability, not correctness: the
// in-memory result is still served, so they are logged rather than failing
// the job.
func (e *Engine) journalAppend(key string, r JobResult) {
	if e.journal == nil {
		return
	}
	data, err := json.Marshal(canonicalResult(r))
	if err != nil {
		log.Printf("engine: encoding journal record: %v", err)
		return
	}
	if _, err := e.journal.Append([]byte(key), data); err != nil {
		log.Printf("engine: journal append: %v", err)
	}
}

// canonicalResult strips per-lookup identity and hit metadata so journal
// records are keyed purely by spec hash; the serving path reassigns them
// per request.
func canonicalResult(r JobResult) JobResult {
	r.ID, r.CacheHit = "", false
	return r
}

// compactLoop periodically rewrites the journal when it holds superseded
// or expired records, so the on-disk log tracks the live result set
// instead of growing with every recomputation.
func (e *Engine) compactLoop(interval time.Duration) {
	defer e.compactWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !e.journal.Expired() {
				continue
			}
			if err := e.journal.Compact(); err != nil {
				log.Printf("engine: compacting journal: %v", err)
			}
		case <-e.compactStop:
			return
		}
	}
}

// CompactJournal forces one journal compaction (normally the background
// loop's job); it reports whether a journal is configured. It is a test
// seam: tests force compaction through it, and no binary calls it.
func (e *Engine) CompactJournal() (bool, error) {
	if e.journal == nil {
		return false, nil
	}
	return true, e.journal.Compact()
}

// journalStats reports the journal's live record count and newest sequence
// number (zeros without a journal).
func (e *Engine) journalStats() (records int, lastSeq uint64) {
	if e.journal == nil {
		return 0, 0
	}
	return e.journal.Records(), e.journal.LastSeq()
}

// TailRecord is the wire form of one journal record on the replication
// endpoint: the sequence cursor, the hex key, and the value bytes exactly
// as the leader journaled them (base64 in JSON, since a value need not be
// JSON) — a JobResult for job records, a lease claim for records in the
// journal's reserved meta-key namespace.
type TailRecord struct {
	Seq   uint64 `json:"seq"`
	Key   string `json:"key"`
	Value []byte `json:"value"`
}

// TailResponse is the GET /v1/journal/records payload: every committed
// record in the window, oldest first, and the leader's newest committed
// sequence number.
type TailResponse struct {
	LastSeq uint64       `json:"last_seq"`
	Records []TailRecord `json:"records"`
}

// journalTail reads up to limit committed records past the cursor for the
// replication endpoint. It decodes nothing: each record ships verbatim.
func (e *Engine) journalTail(after uint64, limit int) (TailResponse, error) {
	recs, last, err := e.journal.ReadAfter(after, limit)
	if err != nil {
		return TailResponse{}, err
	}
	resp := TailResponse{LastSeq: last, Records: make([]TailRecord, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = TailRecord{Seq: rec.Seq, Key: hex.EncodeToString(rec.Key), Value: rec.Value}
	}
	return resp, nil
}

// journalNotify exposes the journal's commit signal to the long-polling
// records endpoint.
func (e *Engine) journalNotify() <-chan struct{} {
	return e.journal.Notify()
}
