package raft

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the file system a FileStorage keeps its directory on: OSFS in
// production, a MemFS in the simulator and tests, and a FaultFS over either
// where disk faults are injected. It holds exactly the calls the WAL makes.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error) // the names in dir, sorted
	ReadFile(path string) ([]byte, error)
	Create(path string) (File, error) // an empty file for writing, truncating one there
	Link(oldpath, newpath string) error
	Remove(path string) error
	SyncDir(dir string) error // makes the links and removals inside dir durable
}

// File is a file a FileStorage appends to.
type File interface {
	Write(b []byte) (int, error)
	Sync() error
	Close() error
}

// OSFS is the operating system's file system.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osFS) Link(oldpath, newpath string) error   { return os.Link(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Create(path string) (File, error)     { return os.Create(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names, err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MemFS is an in-memory FS: a map from path to file contents, where a link
// shares the contents like an inode. A write is durable once it returns, and
// directories exist implicitly. Paths are compared as given: FileStorage
// builds them with filepath.Join.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*[]byte // guarded by mu
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*[]byte)} }

func (m *MemFS) MkdirAll(string) error { return nil }
func (m *MemFS) SyncDir(string) error  { return nil }

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[path]; ok {
		return append([]byte(nil), *data...), nil
	}
	return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
}

func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = new([]byte)
	return memFile{m, m.files[path]}, nil
}

// Link, like os.Link, never replaces a file. Link and Remove are handed only
// names FileStorage has created or listed.
func (m *MemFS) Link(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[newpath]; ok {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: os.ErrExist}
	}
	m.files[newpath] = m.files[oldpath]
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

// memFile appends to one MemFS file's contents, under whatever names it has.
type memFile struct {
	m    *MemFS
	data *[]byte
}

func (f memFile) Write(b []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	*f.data = append(*f.data, b...)
	return len(b), nil
}

func (f memFile) Sync() error  { return nil }
func (f memFile) Close() error { return nil }
