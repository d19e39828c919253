package sim_test

import (
	"fmt"
	"time"

	"shrimp/internal/sim"
)

// A producer and a consumer coordinate through a condition variable on the
// virtual clock; the run is fully deterministic.
func Example() {
	eng := sim.NewEngine()
	ready := sim.NewCond(eng)
	queue := 0

	eng.Spawn("producer", func(p *sim.Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10 * time.Microsecond) // virtual work
			queue++
			ready.Broadcast()
		}
	})
	eng.Spawn("consumer", func(p *sim.Proc) {
		for got := 0; got < 3; {
			for queue == 0 {
				ready.Wait(p)
			}
			queue--
			got++
			fmt.Printf("consumed item %d at %v\n", got, p.Now())
		}
	})

	end := eng.RunAll()
	fmt.Printf("done at %v after %d events\n", end, eng.EventsRun)
	// Output:
	// consumed item 1 at 10.000us
	// consumed item 2 at 20.000us
	// consumed item 3 at 30.000us
	// done at 30.000us after 8 events
}

// Servers model serially-reusable resources: overlapping reservations queue
// back to back.
func ExampleServer() {
	eng := sim.NewEngine()
	bus := sim.MakeServer(eng)
	s1, e1 := bus.Reserve(40 * time.Microsecond)
	s2, e2 := bus.Reserve(10 * time.Microsecond)
	fmt.Printf("first  [%v, %v)\n", s1, e1)
	fmt.Printf("second [%v, %v)\n", s2, e2)
	// Output:
	// first  [0.000us, 40.000us)
	// second [40.000us, 50.000us)
}
