package core

// SetFS makes the publish path write through f until the returned
// restore function runs, so the external crash test can substitute its
// recording file system. Tests that call it must not run in parallel.
func SetFS(f fsys) (restore func()) {
	old := disk
	disk = f
	return func() { disk = old }
}
