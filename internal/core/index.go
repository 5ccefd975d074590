package core

import (
	"dpz/internal/retrieval"
)

// IndexSection returns the raw retrieval-index payload embedded in a v3
// stream, or retrieval.ErrNoIndex when the stream is v1/v2, was written
// with the index disabled, or the index section's framing is damaged
// (index damage degrades to "no index" — it never fails a data decode).
// Structural damage to the stream itself is still an error.
func IndexSection(buf []byte) ([]byte, error) {
	s, err := walk(buf)
	if err != nil {
		return nil, err
	}
	if err := s.dataErr(); err != nil {
		return nil, err
	}
	ix := s.index()
	if ix == nil {
		return nil, retrieval.ErrNoIndex
	}
	return ix, nil
}

// ReadIndex extracts and decodes the retrieval index of a stream. The
// error is retrieval.ErrNoIndex (or a *retrieval.CorruptError wrapping
// it) when no usable index is present; callers fall back to a full
// decode in that case, never to a wrong compressed-domain answer.
func ReadIndex(buf []byte) (*retrieval.Index, error) {
	sec, err := IndexSection(buf)
	if err != nil {
		return nil, err
	}
	return retrieval.DecodePayload(sec)
}
