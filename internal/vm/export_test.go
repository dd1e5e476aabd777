package vm

// Image exposes the memory image to the external tests (package
// vm_test can import the workloads, this package cannot): the oracle
// that compares whole images, which Equal no longer does.
func (m *Machine) Image() []uint64 { return m.mem }
