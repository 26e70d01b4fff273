//go:build race

package euler

func init() { raceEnabled = true }
