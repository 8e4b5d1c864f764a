package journal

// Window reports the current window stamp.
func (j *Journal) Window() int {
	if j == nil {
		return 0
	}
	return int(j.window.Load())
}
