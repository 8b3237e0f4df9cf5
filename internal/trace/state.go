package trace

// RecorderState is the serializable state of a Recorder: the retained event
// stream plus the drop ledger, so a restored run's final trace is
// byte-identical to an uninterrupted one. Len, At, Events, AppendEvents,
// DetailBytes, Encode, WriteChrome and TaskNames read its stream.
//
// A state is immutable. It shares the recorder's full chunks, which are
// never written again, and owns copies of the partial last chunk and the
// detail table, so the stream is stored once however many states hold it.
type RecorderState struct {
	Limit   int
	Dropped uint64
	stream
}

// CaptureState snapshots the recorder. The state stays valid while the
// recorder keeps appending.
func (r *Recorder) CaptureState() *RecorderState {
	return &RecorderState{Limit: r.Limit, Dropped: r.dropped, stream: r.share(false)}
}

// RestoreState replaces the recorder's contents with a captured state. The
// recorder shares the state's full chunks and appends into its own copy of
// the last one, so recorder and state never alias.
func (r *Recorder) RestoreState(st *RecorderState) {
	r.Limit = st.Limit
	r.stream, r.index = st.share(true), nil
	r.dropped = st.Dropped
}
