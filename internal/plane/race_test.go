//go:build race

package plane

const raceEnabled = true
