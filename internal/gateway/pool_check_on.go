//go:build poolcheck

package gateway

import "fmt"

// Pool-hygiene instrumentation (poolcheck build tag): a waiter is poisoned on
// put and checked on get, so a recycling bug — a double put, or a waiter
// pooled unresolved or with a response or wake-up token left on it — panics
// at once instead of aliasing a later request's response. A batch backing
// array recycled while already on the free-list panics too: two later
// batches would share it. `make race` runs the gateway tests with this tag
// on.

// poisonID is an ID no real request ever carries (IDs start at 1).
const poisonID = -0x5EED

func poisonWaiter(w *waiter) {
	if w.id == poisonID {
		panic("gateway: pooled waiter put back twice")
	}
	w.id = poisonID
	checkWaiterClean(w)
}

// checkWaiterClean panics unless w is poisoned, pending, and carries neither
// a response nor a wake-up token.
func checkWaiterClean(w *waiter) {
	if st := w.state.Load(); w.id != poisonID || st != waitPending || w.resp != (Response{}) || len(w.ch) != 0 {
		panic(fmt.Sprintf("gateway: pooled waiter dirty (id=%d, state %d, response %+v, %d wake-up tokens)", w.id, st, w.resp, len(w.ch)))
	}
}

// checkBatchRecycle panics if batch's backing array is already on the free
// list it is about to join. batch has non-zero capacity.
func checkBatchRecycle(free [][]*waiter, batch []*waiter) {
	for _, b := range free {
		if &b[:1][0] == &batch[:1][0] {
			panic("gateway: batch backing array recycled twice")
		}
	}
}
