// Package es exercises the errsink pass: errors from durability calls
// must be consulted on every path.
package es

import "os"

type wal struct {
	f    *os.File
	idx  *os.File
	errs int
}

type record struct{ b []byte }

func (w *wal) Append(r *record) (uint64, error) { return 0, nil }

func logErr(err error) {}

// --- discarded results ------------------------------------------------

func (w *wal) discardSync() {
	w.f.Sync() // want "error from Sync is discarded"
}

func (w *wal) discardDeferredClose() {
	defer w.f.Close() // want "error from Close is discarded"
	w.f.Sync()        // want "error from Sync is discarded"
}

func (w *wal) auditedDiscard() {
	_ = w.f.Sync() // explicit blank assignment: accepted
}

// --- unconsumed locals ------------------------------------------------

func (w *wal) ignoredOnOnePath(fast bool) error {
	err := w.f.Sync() // want "error from Sync is never consulted on some path"
	if fast {
		return nil
	}
	return err
}

func (w *wal) overwrittenBeforeCheck() error {
	err := w.f.Sync()  // the finding lands on the overwrite below
	err = w.idx.Sync() // want "error from Sync is overwritten before being consulted"
	return err
}

func (w *wal) overwrittenInLoop(n int) {
	var err error
	for i := 0; i < n; i++ {
		err = w.f.Sync() // want "error from Sync is overwritten before being consulted"
	}
	logErr(err)
}

// --- clean ------------------------------------------------------------

func (w *wal) checked() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	return nil
}

func (w *wal) checkedThenReused() error {
	err := w.f.Sync()
	if err != nil {
		return err
	}
	err = w.idx.Sync()
	return err
}

func (w *wal) countedInMetric() {
	if err := w.f.Sync(); err != nil {
		w.errs++
	}
}

func (w *wal) loggedOnAllPaths(fast bool) {
	err := w.f.Sync()
	if fast {
		logErr(err)
		return
	}
	logErr(err)
}

func (w *wal) tupleChecked(r *record) error {
	if _, err := w.Append(r); err != nil {
		return err
	}
	return nil
}

func (w *wal) returnedDirectly() error {
	return w.f.Sync()
}

func (w *wal) allowedDrop() {
	//dartvet:allow errsink -- fixture: best-effort sync, failure handled by replay
	w.f.Sync()
}
