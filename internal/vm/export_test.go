package vm

import "slices"

// Image exposes the memory image to the external tests (package
// vm_test can import the workloads, this package cannot) as one flat
// copy: the oracle that compares whole images, which Equal no longer
// does.
func (m *Machine) Image() []uint64 {
	img := make([]uint64, 0, m.memWords)
	for p := range m.mem {
		img = append(img, m.imagePage(p)...)
	}
	return img
}

// ImageIs reports whether the memory image is img, word for word,
// without copying the image first.
func (m *Machine) ImageIs(img []uint64) bool {
	if len(img) != m.memWords {
		return false
	}
	for p := range m.mem {
		page := m.imagePage(p)
		if !slices.Equal(page, img[p*pageWords:p*pageWords+len(page)]) {
			return false
		}
	}
	return true
}

// imagePage returns the words of page p that belong to the image: all
// of them but on the last page.
func (m *Machine) imagePage(p int) []uint64 {
	return m.mem[p][:min(pageWords, m.memWords-p*pageWords)]
}
