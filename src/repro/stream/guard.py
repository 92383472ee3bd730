"""The online guarded assistant: chunks in, vetoed utterances out.

:class:`StreamingGuard` is the deployment the paper describes — the
defense sitting *in front of* a live assistant — realised over this
repository's offline components, and it decides through the *same*
:func:`repro.defense.guard.guard_outcome` policy as the offline
:class:`~repro.defense.guard.GuardedVoiceAssistant`.

Two gating modes:

* **gated** (default) — a one-row view over the fleet kernel's
  :class:`~repro.stream.kernel.StreamGroup` (ring, causal segmenter,
  incremental Welch): :meth:`push` runs one kernel cycle and returns
  the utterances that chunk closed, decided at once through
  :func:`~repro.stream.kernel.decide_utterances`, each with its
  deterministic, sample-denominated detection latency. A stream's
  verdicts are therefore the fleet kernel's for that stream, for any
  chunk partition (only ``emitted_at_sample`` moves with the
  chunking).
* **gateless** (``gated=False``) — the caller delimits utterances
  (:meth:`end_utterance`), which is how the parity suites and the S1
  experiment compare a chunked stream against the offline guard on
  identical sample spans. Its Welch accumulation runs online through
  :class:`~repro.stream.features.StreamingTraceExtractor`; the
  verdict, score and features are bitwise the offline assistant's on
  the concatenated samples, for **any** partition into push chunks.
"""

from __future__ import annotations

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.features import features_from_analysis
from repro.defense.guard import GuardedOutcome, guard_outcome
from repro.dsp.signals import Signal, Unit
from repro.errors import StreamError
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.features import StreamingTraceExtractor
from repro.stream.kernel import (
    StreamGroup,
    UtteranceOutcome,
    check_guard_inputs,
    decide_utterances,
)
from repro.stream.segmenter import SegmenterConfig


class StreamingGuard:
    """Online counterpart of the offline guarded voice assistant.

    Parameters
    ----------
    recognizer:
        An enrolled :class:`~repro.speech.recognizer.KeywordRecognizer`.
    detector:
        A trained
        :class:`~repro.defense.detector.InaudibleVoiceDetector`.
    sample_rate:
        Device rate of the incoming stream.
    unit:
        Unit of the incoming samples (device recordings are digital).
    gated:
        ``True`` installs the online segmenter; ``False`` leaves
        utterance delimitation to the caller (:meth:`end_utterance`).
    segmenter_config:
        Gate tuning (gated mode only).
    """

    def __init__(
        self,
        recognizer: KeywordRecognizer,
        detector: InaudibleVoiceDetector,
        sample_rate: float,
        unit: str = Unit.DIGITAL,
        gated: bool = True,
        segmenter_config: SegmenterConfig | None = None,
    ) -> None:
        check_guard_inputs(recognizer, sample_rate)
        self.recognizer = recognizer
        self.detector = detector
        self.sample_rate = float(sample_rate)
        self.unit = unit
        self.gated = bool(gated)
        self._extractor: StreamingTraceExtractor | None = None
        if self.gated:
            self._group = StreamGroup(
                1, sample_rate, segmenter_config, [unit]
            )
            self._head = 0
        elif segmenter_config is not None:
            raise StreamError(
                "segmenter_config is meaningless with gated=False"
            )

    # -- gated mode ----------------------------------------------------

    def push(self, chunk: np.ndarray) -> list[UtteranceOutcome]:
        """Feed a chunk; returns the utterances it closed (gated), or
        an empty list (gateless — call :meth:`end_utterance`).

        Samples must already be in the stream's unit as floating
        point (float32 is promoted exactly); integer PCM counts are
        refused rather than read as that unit.
        """
        samples = np.asarray(chunk)
        if not np.issubdtype(samples.dtype, np.floating):
            raise StreamError(
                f"push expects floating-point samples in unit "
                f"{self.unit!r}, got dtype {samples.dtype}; scale "
                "integer PCM to the stream's unit first"
            )
        samples = samples.astype(np.float64, copy=False)
        if not self.gated:
            self._feed_gateless(samples)
            return []
        if samples.ndim != 1:
            raise StreamError(
                f"push expects a 1-D chunk, got shape {samples.shape}"
            )
        head = self._head + samples.shape[0]
        closed = self._group.push(samples[np.newaxis, :], [head])
        self._head = head
        return self._decide_closed(closed)

    def flush(self) -> list[UtteranceOutcome]:
        """End of stream: close and decide any open utterance."""
        if not self.gated:
            raise StreamError(
                "flush() is for gated streams; gateless callers use "
                "end_utterance()"
            )
        return self._decide_closed(self._group.flush([self._head]))

    def _decide_closed(self, closed) -> list[UtteranceOutcome]:
        if not closed:
            return []
        return decide_utterances(
            closed, self.sample_rate, self.recognizer, self.detector
        )

    # -- gateless mode -------------------------------------------------

    def _feed_gateless(self, chunk: np.ndarray) -> None:
        if self._extractor is None:
            self._extractor = StreamingTraceExtractor(
                self.sample_rate, self.unit
            )
        self._extractor.feed(chunk)
        # Caller-delimited utterances: everything pushed so far is in
        # the utterance, so the Welch accumulation may run eagerly.
        self._extractor.commit(self._extractor.n_fed)

    def end_utterance(self) -> GuardedOutcome:
        """Close the caller-delimited utterance and decide it.

        Bitwise identical to the offline assistant's ``process`` of
        the concatenated pushed samples, whatever the chunking.
        """
        if self.gated:
            raise StreamError(
                "end_utterance() is for gateless streams; gated "
                "streams close through their segmenter (or flush())"
            )
        if self._extractor is None or self._extractor.n_fed == 0:
            raise StreamError(
                "no samples pushed since the last utterance"
            )
        extractor = self._extractor
        self._extractor = None
        recording = Signal(
            extractor.waveform(), self.sample_rate, self.unit
        )
        recognition = self.recognizer.recognize(recording)

        def detect():
            vector = features_from_analysis(
                extractor.finalize(),
                subset=self.detector.feature_subset,
            )
            return self.detector.classify_features(vector)

        return guard_outcome(recognition, detect)

    def process_recording(
        self, recording: Signal, chunk_samples: int
    ) -> GuardedOutcome:
        """Stream one recording through in fixed-size chunks.

        Gateless convenience used by the parity suites, the S1
        experiment and the CI differential: pushes ``recording`` in
        ``chunk_samples`` pieces and closes — the result must equal
        ``GuardedVoiceAssistant.process(recording)`` bitwise.
        """
        if self.gated:
            raise StreamError(
                "process_recording() needs a gateless guard "
                "(gated=False)"
            )
        if chunk_samples < 1:
            raise StreamError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        if recording.sample_rate != self.sample_rate:
            raise StreamError(
                f"recording rate {recording.sample_rate} Hz does not "
                f"match the stream rate {self.sample_rate} Hz"
            )
        if recording.unit != self.unit:
            raise StreamError(
                f"recording unit {recording.unit!r} does not match "
                f"the stream unit {self.unit!r}"
            )
        samples = recording.samples
        for start in range(0, samples.shape[0], chunk_samples):
            self.push(samples[start : start + chunk_samples])
        return self.end_utterance()
