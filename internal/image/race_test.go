//go:build race

package image

// The equivalence streams run on one goroutine, where the race detector
// finds nothing and costs a tenfold slowdown; under -race they run at an
// eighth of their length. Their full length runs without -race.
func init() { streamDivisor = 8 }
