package defect

import "repro/internal/bitmat"

// Delta window: incremental-maintenance support for consumers that cache a
// derived view of a Map (candidate bitsets, transposed functional views) and
// want to refresh only what changed instead of rebuilding per trial.
//
// The protocol is version-floored. A consumer records Version() when it
// (re)builds its view and calls ResetDelta() to open a window. On the next
// refresh it may apply the delta incrementally iff
//
//	!DeltaAll() && DeltaBase() == recordedVersion
//
// i.e. the window covers exactly the span since its last build. Any other
// state — a fresh map, a Reset, a second consumer having consumed the window
// in between — fails the check and the consumer falls back to a full
// rebuild, which is always correct. The window accumulates across multiple
// mutations and Regenerates, so a consumer that skips trials still sees the
// union of everything it missed.
//
// Mutation sources maintain the window as follows: Set marks the touched
// row/column in O(1); Reset degrades to all-dirty (DeltaAll); Regenerate
// XORs each new word of both planes with the word it replaces and marks
// exactly the rows/columns holding a cell whose kind changed (so trials that
// resample one region, or back-to-back trials at low defect rates, mark only
// the symmetric difference of the two defect sets). Version() advances on
// every effective mutation — an unchanged map keeps its version, letting
// consumers skip refreshes entirely.

// Version returns the mutation counter: it advances every time a cell's kind
// effectively changes (writes of the current kind are free). Equal versions
// across two observations guarantee identical map contents in between.
//
//xbar:hotpath
func (m *Map) Version() uint64 { return m.version }

// DeltaBase returns the version the current delta window was opened at (by
// the last ResetDelta). The window describes every change from DeltaBase to
// Version.
//
//xbar:hotpath
func (m *Map) DeltaBase() uint64 { return m.deltaBase }

// DeltaAll reports whether the window has degraded to whole-map dirty (fresh
// map, Reset, or dimension-scale rewrites); consumers must then rebuild.
//
//xbar:hotpath
func (m *Map) DeltaAll() bool { return m.deltaAll }

// DeltaRows returns the packed mask of rows changed within the window.
// Read-only view, meaningless while DeltaAll is set.
//
//xbar:hotpath
func (m *Map) DeltaRows() bitmat.Row { return m.deltaRows }

// DeltaCols returns the packed mask of columns changed within the window.
// Read-only view, meaningless while DeltaAll is set.
//
//xbar:hotpath
func (m *Map) DeltaCols() bitmat.Row { return m.deltaCols }

// ResetDelta closes the current window and opens a fresh one at the current
// version. The caller must have just (re)built its derived view from the
// map's present contents.
//
//xbar:hotpath
func (m *Map) ResetDelta() {
	m.deltaRows.Zero()
	m.deltaCols.Zero()
	m.deltaAll = false
	m.deltaBase = m.version
}

// CloseDelta closes the window without opening a new one: the map goes back
// to the untracked all-dirty state, so Set and Regenerate stop marking.
// Consumers call it instead of ResetDelta when tracking has stopped paying
// for itself — a Monte Carlo loop resampling the whole map every trial
// produces only dense diffs, and patching a derived view line by line then
// costs more than rebuilding it. A later ResetDelta reopens tracking at any
// time. Version() keeps advancing regardless, so version-equality skip
// paths survive a closed window.
//
//xbar:hotpath
func (m *Map) CloseDelta() { m.deltaAll = true }
