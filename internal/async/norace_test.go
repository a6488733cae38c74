//go:build !race

package async

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
