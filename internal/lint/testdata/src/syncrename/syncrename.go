// Fixture for the syncrename analyzer: a file written in a function
// must be Sync()ed before the rename that makes it visible.
package syncrename

import "os"

// --- positive cases ---

func writeRenameNoSync(path string) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return os.Rename(path+".tmp", path) // want "without a preceding Sync"
}

func openFileRenameNoSync(path string) error {
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	return os.Rename(path+".tmp", path) // want "without a preceding Sync"
}

// os.CreateTemp hands back a writable file just like os.Create: the
// temp-file-then-rename idiom owes the same fsync.
func createTempRenameNoSync(dir, path string) error {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write([]byte("payload")); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path) // want "without a preceding Sync"
}

func syncAfterRenameIsTooLate(path string) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil { // want "without a preceding Sync"
		return err
	}
	defer f.Close()
	return f.Sync()
}

// --- negative cases ---

// The crash-safe shape: write, sync, close, rename.
func writeSyncRename(path string) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// A pure move writes nothing here; the sync obligation lies with
// whoever wrote the file.
func pureMove(from, to string) error {
	return os.Rename(from, to)
}
