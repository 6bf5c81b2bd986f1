package explore

// CompareRacePasses exposes compareRacePassSettings to the synth corpus
// cases in racepass_test.go: package synth imports explore, so only an
// external test package can use both. It returns the number of children
// the runs proposed.
func CompareRacePasses(prog Program, runs int) (int, error) {
	c, err := compareRacePassSettings(prog, runs)
	return c.children, err
}
