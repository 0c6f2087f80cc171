package snapshot

import (
	"fmt"
	"os"
	"time"
)

// Stater is implemented by every checkpointable subsystem. SnapshotState
// must write the subsystem's state as labeled fields in a fixed source
// order — same state, same bytes.
type Stater interface {
	SnapshotState(*Encoder)
}

// StateFunc adapts a capture function to Stater.
type StateFunc func(*Encoder)

// SnapshotState implements Stater.
func (f StateFunc) SnapshotState(e *Encoder) { f(e) }

// Reconcile re-captures the subsystem's live state and compares it
// field-by-field against the stored section, reporting the first
// divergence. It is the only resume rule: pending events are closures, so
// state cannot be injected; a resumed run is re-executed to the
// checkpoint's virtual time and every registered Stater is proven there.
func Reconcile(st Stater, dec *Decoder) error {
	e := NewEncoder()
	st.SnapshotState(e)
	live, err := DecodePayload(e.Payload())
	if err != nil {
		return fmt.Errorf("live state re-encode: %w", err)
	}
	stored := dec.Fields()
	n := len(stored)
	if len(live) < n {
		n = len(live)
	}
	for i := 0; i < n; i++ {
		if !stored[i].equal(live[i]) {
			return fmt.Errorf("field %q: checkpoint has %s, resumed run has %s",
				stored[i].Label, stored[i].Value(), live[i].Value())
		}
	}
	if len(stored) != len(live) {
		return fmt.Errorf("field count: checkpoint has %d, resumed run has %d", len(stored), len(live))
	}
	return nil
}

// Recorder captures per-subsystem sections into checkpoint files.
// Subsystems are serialized in registration order, which fixes both the
// file layout and the bisect report ordering.
type Recorder struct {
	meta    Meta
	dir     string
	names   []string
	staters []Stater

	// Delta enables delta encoding: a section whose payload is
	// byte-identical to the previous checkpoint's is stored as a digest
	// only (format version 2). Delta files alternate with full files —
	// a section is elided only when the previous checkpoint carried every
	// section in full — so any delta file resolves against exactly its
	// immediate predecessor.
	Delta bool

	// prevDigests remembers the last written checkpoint's section digests
	// (delta encoding); prevVTime is its virtual time, prevWasDelta
	// whether it elided anything.
	prevDigests  map[string]uint64
	prevVTime    time.Duration
	prevWasDelta bool

	// Written accumulates the paths of checkpoints written so far;
	// writtenDelta marks which of them are delta-encoded.
	Written      []string
	writtenDelta []bool
}

// NewRecorder returns a recorder that writes checkpoints for the described
// run into dir.
func NewRecorder(meta Meta, dir string) *Recorder {
	return &Recorder{meta: meta, dir: dir}
}

// Register adds a subsystem under a unique section name.
func (r *Recorder) Register(name string, st Stater) {
	for _, n := range r.names {
		if n == name {
			panic(fmt.Sprintf("snapshot: duplicate section %q", name))
		}
	}
	r.names = append(r.names, name)
	r.staters = append(r.staters, st)
}

// Capture serializes every registered subsystem at the given virtual time.
func (r *Recorder) Capture(vt time.Duration) *File {
	f := &File{Meta: r.meta}
	f.Meta.VTime = vt
	for i, st := range r.staters {
		e := NewEncoder()
		st.SnapshotState(e)
		payload := e.Payload()
		f.Sections = append(f.Sections, Section{
			Name:    r.names[i],
			Payload: payload,
			Digest:  Digest(payload),
		})
	}
	return f
}

// WriteCheckpoint captures and persists one checkpoint, delta-encoding
// unchanged sections against the previous checkpoint when Delta is on.
func (r *Recorder) WriteCheckpoint(vt time.Duration) (string, error) {
	f := r.Capture(vt)
	delta := false
	if r.Delta && r.prevDigests != nil && !r.prevWasDelta {
		for i := range f.Sections {
			s := &f.Sections[i]
			if prev, ok := r.prevDigests[s.Name]; ok && prev == s.Digest {
				s.Payload = nil
				s.Elided = true
				delta = true
			}
		}
		if delta {
			f.Meta.DeltaBase = r.prevVTime
		}
	}
	if r.Delta {
		digests := make(map[string]uint64, len(f.Sections))
		for _, s := range f.Sections {
			digests[s.Name] = s.Digest
		}
		r.prevDigests = digests
		r.prevVTime = vt
		r.prevWasDelta = delta
	}
	path, err := f.WriteFile(r.dir)
	if err != nil {
		return "", err
	}
	r.Written = append(r.Written, path)
	r.writtenDelta = append(r.writtenDelta, delta)
	return path, nil
}

// Prune deletes the oldest written checkpoints until at most keep remain,
// so multi-hour runs do not accumulate unbounded .snap files. When the
// oldest survivor is delta-encoded, its base (the file just before it)
// survives too, so every remaining checkpoint stays resolvable. Written
// is trimmed to the surviving files (it is appended in virtual-time
// order, so the head is always the oldest). keep <= 0 retains everything.
func (r *Recorder) Prune(keep int) error {
	if keep <= 0 || len(r.Written) <= keep {
		return nil
	}
	cut := len(r.Written) - keep
	if len(r.writtenDelta) == len(r.Written) && r.writtenDelta[cut] {
		cut--
	}
	if cut <= 0 {
		return nil
	}
	for _, path := range r.Written[:cut] {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("snapshot: pruning checkpoint: %w", err)
		}
	}
	r.Written = append(r.Written[:0:0], r.Written[cut:]...)
	if len(r.writtenDelta) >= cut {
		r.writtenDelta = append(r.writtenDelta[:0:0], r.writtenDelta[cut:]...)
	}
	return nil
}

// Verify reconciles a stored checkpoint against the live (fast-forwarded)
// state of every registered subsystem. The run must be at exactly
// f.Meta.VTime when this is called.
func (r *Recorder) Verify(f *File) error {
	for _, sec := range f.Sections {
		if sec.Elided {
			return fmt.Errorf("snapshot: section %q is delta-encoded; resolve the checkpoint (ReadResolved) before verifying", sec.Name)
		}
		idx := -1
		for i, n := range r.names {
			if n == sec.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("snapshot: checkpoint section %q has no registered subsystem", sec.Name)
		}
		dec, err := NewDecoder(sec.Payload)
		if err != nil {
			return fmt.Errorf("section %q: %w", sec.Name, err)
		}
		if err := Reconcile(r.staters[idx], dec); err != nil {
			return fmt.Errorf("resume verification failed in %q at %s: %w", sec.Name, f.Meta.VTime, err)
		}
	}
	return nil
}
