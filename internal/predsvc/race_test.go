//go:build race

package predsvc

const raceEnabled = true
