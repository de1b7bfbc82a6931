//go:build !poolcheck

package gateway

// Pool-hygiene instrumentation is compiled out unless the poolcheck build
// tag is set; pool_check_on.go holds the poison-on-put and double-recycle
// variants that `make race` runs against the gateway tests.

func poisonWaiter(w *waiter) {}

func checkWaiterClean(w *waiter) {}

func checkBatchRecycle(free [][]*waiter, batch []*waiter) {}
