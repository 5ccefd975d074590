package dpz

import (
	"context"
	"fmt"
	"io"

	"dpz/internal/archive"
	"dpz/internal/fault"
	"dpz/internal/stats"
)

// ArchiveWriter packs many named DPZ-compressed fields into one container
// stream (a simulation campaign's worth of diagnostics in a single file).
// Fields are compressed as they are added; Close finalizes the index.
type ArchiveWriter struct {
	w *archive.Writer
}

// NewArchiveWriter starts a DPZ archive on w.
func NewArchiveWriter(w io.Writer) (*ArchiveWriter, error) {
	aw, err := archive.NewWriter(w)
	if err != nil {
		return nil, err
	}
	return &ArchiveWriter{w: aw}, nil
}

// Compress compresses data under the given field name and appends it.
// It returns the compression statistics.
func (a *ArchiveWriter) Compress(name string, data []float32, dims []int, o Options) (*Stats, error) {
	return a.CompressFloat64(name, stats.Float32To64(data), dims, o)
}

// CompressFloat64 is Compress for double-precision input.
func (a *ArchiveWriter) CompressFloat64(name string, data []float64, dims []int, o Options) (*Stats, error) {
	res, err := CompressFloat64(data, dims, o)
	if err != nil {
		return nil, fmt.Errorf("dpz: archive field %q: %w", name, err)
	}
	if err := a.w.Append(name, res.Data); err != nil {
		return nil, err
	}
	return &res.Stats, nil
}

// Append stores an already-compressed DPZ stream under name.
func (a *ArchiveWriter) Append(name string, stream []byte) error {
	return a.w.Append(name, stream)
}

// ArchiveField is one input to CompressBatch: a named field with its
// row-major data and logical dimensions.
type ArchiveField struct {
	Name string
	Data []float64
	Dims []int
}

// CompressBatch compresses many fields concurrently and appends them in
// the given order, through the pipeline CompressTiled runs on its tiles.
// The archive bytes are identical to appending the fields one by one,
// for every worker count; only the wall-clock changes. Returns
// per-field stats in input order.
func (a *ArchiveWriter) CompressBatch(fields []ArchiveField, o Options) ([]Stats, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	read := func(i int) (archiveStream, error) {
		f := fields[i]
		return archiveStream{label: fmt.Sprintf("archive field %q", f.Name), data: f.Data, dims: f.Dims}, nil
	}
	sink := func(i int, stream []byte) error { return a.w.Append(fields[i].Name, stream) }
	return compressStreams(context.Background(), len(fields), 0, o, read, sink)
}

// Close writes the archive index. A second Close (e.g. from a defer
// after an explicit Close) returns ErrArchiveClosed.
func (a *ArchiveWriter) Close() error { return a.w.Close() }

// ErrArchiveClosed is returned by ArchiveWriter.Append/Compress/Close
// once the writer has been closed; match it with errors.Is.
var ErrArchiveClosed = archive.ErrClosed

// ErrArchiveBroken is returned by a DurableArchiveWriter whose rollback
// failed: the file on disk is still recoverable to its last commit, but
// this writer cannot continue; match it with errors.Is.
var ErrArchiveBroken = archive.ErrBroken

// DurableArchiveWriter is ArchiveWriter with journaled crash safety:
// every appended field is followed by a fsynced commit record, so a
// crash — power cut, OOM kill, torn write — at any byte leaves an
// archive from which RecoverArchiveFile restores every committed field
// byte-identically. A failed Append rolls the file back to the previous
// commit and may be retried. Not safe for concurrent use.
type DurableArchiveWriter struct {
	w *archive.DurableWriter
}

// CreateDurableArchive starts a crash-safe archive at path, which must
// not already exist. The file name itself is made durable (directory
// fsync) before this returns.
func CreateDurableArchive(path string) (*DurableArchiveWriter, error) {
	dw, err := archive.NewDurableWriter(fault.OS{}, path)
	if err != nil {
		return nil, err
	}
	return &DurableArchiveWriter{w: dw}, nil
}

// Compress compresses data under name and appends it with a commit:
// when it returns nil, the field is on stable storage.
func (d *DurableArchiveWriter) Compress(name string, data []float32, dims []int, o Options) (*Stats, error) {
	return d.CompressFloat64(name, stats.Float32To64(data), dims, o)
}

// CompressFloat64 is Compress for double-precision input.
func (d *DurableArchiveWriter) CompressFloat64(name string, data []float64, dims []int, o Options) (*Stats, error) {
	res, err := CompressFloat64(data, dims, o)
	if err != nil {
		return nil, fmt.Errorf("dpz: archive field %q: %w", name, err)
	}
	if err := d.w.Append(name, res.Data); err != nil {
		return nil, err
	}
	return &res.Stats, nil
}

// Append stores an already-compressed DPZ stream under name, committed
// and fsynced before it returns nil.
func (d *DurableArchiveWriter) Append(name string, stream []byte) error {
	return d.w.Append(name, stream)
}

// Committed returns the durable file length: a crash now loses nothing
// before it.
func (d *DurableArchiveWriter) Committed() int64 { return d.w.Committed() }

// Close writes the index and footer and fsyncs; the archive then opens
// through the fast indexed path.
func (d *DurableArchiveWriter) Close() error { return d.w.Close() }

// RecoverArchiveFile opens an archive file that may have a torn tail
// (a durable write that crashed before Close), restoring every
// committed field. The returned closer releases the underlying file;
// close it after the reader is no longer used. Plain (non-durable)
// archives fall back to the whole-file frame scan of RecoverArchive.
func RecoverArchiveFile(path string) (*ArchiveReader, io.Closer, error) {
	rd, f, err := archive.RecoverDurableFile(fault.OS{}, path)
	if err != nil {
		return nil, nil, err
	}
	return &ArchiveReader{r: rd}, f, nil
}

// ArchiveOptions configures OpenArchiveOptions.
type ArchiveOptions struct {
	// AllowRecovery falls back to an entry-frame scan when a v2 archive's
	// tail index is missing, truncated or fails its checksum — the
	// crash-recovery path for torn writes. Check Recovered() on the
	// resulting reader to see whether the fallback was taken.
	AllowRecovery bool
}

// ArchiveReader reads fields back from a finished archive.
type ArchiveReader struct {
	r *archive.Reader
}

// OpenArchive parses the index of an archive of the given total size.
func OpenArchive(r io.ReaderAt, size int64) (*ArchiveReader, error) {
	return OpenArchiveOptions(r, size, ArchiveOptions{})
}

// OpenArchiveOptions is OpenArchive with explicit recovery behaviour.
func OpenArchiveOptions(r io.ReaderAt, size int64, o ArchiveOptions) (*ArchiveReader, error) {
	ar, err := archive.Open(r, size, archive.Options{AllowRecovery: o.AllowRecovery})
	if err != nil {
		return nil, err
	}
	return &ArchiveReader{r: ar}, nil
}

// RecoverArchive salvages every intact field from a damaged v2 archive
// by scanning its self-framing entries, ignoring the index entirely.
func RecoverArchive(r io.ReaderAt, size int64) (*ArchiveReader, error) {
	ar, err := archive.Recover(r, size)
	if err != nil {
		return nil, err
	}
	return &ArchiveReader{r: ar}, nil
}

// Fields lists the stored field names in append order.
func (a *ArchiveReader) Fields() []string { return a.r.Names() }

// Len returns the number of stored fields.
func (a *ArchiveReader) Len() int { return a.r.Len() }

// Decompress reads and decompresses the named field.
func (a *ArchiveReader) Decompress(name string) ([]float32, []int, error) {
	d, dims, err := a.DecompressFloat64(name)
	if err != nil {
		return nil, nil, err
	}
	return stats.Float64To32(d), dims, nil
}

// DecompressFloat64 is Decompress with double-precision output.
func (a *ArchiveReader) DecompressFloat64(name string) ([]float64, []int, error) {
	payload, err := a.r.Payload(name)
	if err != nil {
		return nil, nil, err
	}
	return DecompressFloat64(payload)
}

// Stream returns the raw compressed bytes of the named field. For v2
// archives the payload checksum is verified on every read.
func (a *ArchiveReader) Stream(name string) ([]byte, error) { return a.r.Payload(name) }

// Version reports the archive format version (1 or 2).
func (a *ArchiveReader) Version() int { return a.r.Version() }

// Recovered reports whether this reader came from a frame-scan salvage
// rather than the tail index.
func (a *ArchiveReader) Recovered() bool { return a.r.Recovered() }

// FieldStatus reports one field's integrity from ArchiveReader.Verify.
type FieldStatus = archive.FieldStatus

// Verify reads every field and checks its payload checksum (v2; v1
// archives carry no checksums, so only readability is checked).
func (a *ArchiveReader) Verify() []FieldStatus { return a.r.Verify() }
