"""In-memory span recorder wrapped around csilab's public functions.

The recorder patches names from outside the package: every public
function and public method of the traced layer modules is replaced by a
wrapper, in every csilab module that binds it (``estimators`` imports the
``dsp`` functions by name, ``cli`` imports the estimators, and so on).
``numpy.fft.rfft``/``irfft`` get counting wrappers, because every layer
reaches them through the ``np.fft`` attribute.

A span is (name, parent span index, start, end, alloc peak bytes, error
class).  Allocation peaks come from tracemalloc, which numpy feeds with
its data buffers; ``reset_peak`` is nested by folding each interval's
peak into every open span before resetting.  tracemalloc runs only
while a span of an ``ALLOC_LAYERS`` layer is open: it slows every Python
allocation, and the CLI's row-by-row CSV formatting would otherwise
inflate ``cli`` self time several times over.  Spans stay in memory and
are written out once, by :meth:`Tracer.dump`, when the command ends.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc

# layers the benchmark times; fock and scenarios are left out on purpose
# (see run.py)
LAYERS = ("synth", "theory", "tracefile", "dsp", "estimators", "cli")
ALLOC_LAYERS = ("synth", "tracefile", "estimators")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _fft_points(a, n, axis, inverse: bool) -> int:
    """Real time-domain samples one numpy.fft call transforms."""
    shape = getattr(a, "shape", None) or (len(a),)
    length = shape[axis]
    if n is None:
        n = 2 * (length - 1) if inverse else length
    transforms = 1
    for k, size in enumerate(shape):
        if k != axis % len(shape):
            transforms *= size
    return transforms * int(n)


class Tracer:
    """Spans and counters of one traced command; one instance per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, parent, start, end, alloc_peak_bytes, error]
        self.counters = {}
        self._open = []  # indices of open spans
        self._base = {}  # span index -> [traced bytes at entry, peak seen]
        self._alloc_owner = None  # span that started tracemalloc

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for idx in self._open:
            rec = self._base[idx]
            rec[1] = max(rec[1], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span named ``name`` around each call of fn.

        ``after(args, kwargs, result)`` runs once the span has closed, so
        bookkeeping on the result stays out of the timed interval.
        """

        tracks_alloc = name.split(".")[0] in ALLOC_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            if tracks_alloc and self._alloc_owner is None:
                tracemalloc.start()
                self._alloc_owner = idx
            current = self._fold_peak()
            self._base[idx] = [current, current]
            rec = [name, parent, 0.0, 0.0, 0, None]
            self.spans.append(rec)
            self._open.append(idx)
            rec[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = _clock()
                self._fold_peak()
                self._open.pop()
                entry, peak = self._base.pop(idx)
                rec[4] = peak - entry
                if self._alloc_owner == idx:
                    tracemalloc.stop()
                    self._alloc_owner = None
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, fft_module) -> None:
        """Patch every binding of the traced layers' public callables."""
        import csilab.cli  # noqa: F401  (cli is not imported by the package)
        from csilab.tracefile import HEADER_SIZE

        package = {n: m for n, m in sys.modules.items()
                   if n == "csilab" or n.startswith("csilab.")}
        hooks = {
            "tracefile.read_tracefile": lambda a, k, ts: self.count(
                "tracefile.bytes", HEADER_SIZE + 2 * ts.codes.size),
            "tracefile.write_tracefile": lambda a, k, r: self.count(
                "tracefile.bytes", HEADER_SIZE + 2 * a[0].codes.size),
            "estimators.cutoff_sweep": lambda a, k, r: self.count(
                "estimators.cutoff_sweep.cutoffs", len(r)),
        }
        for layer in LAYERS:
            mod = package[f"csilab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for other in package.values():
                        for key, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

        rfft, irfft = fft_module.rfft, fft_module.irfft

        def counted_rfft(a, n=None, axis=-1, *args, **kwargs):
            self.count("fft.rfft.calls")
            self.count("fft.rfft.points", _fft_points(a, n, axis, inverse=False))
            return rfft(a, n, axis, *args, **kwargs)

        def counted_irfft(a, n=None, axis=-1, *args, **kwargs):
            self.count("fft.irfft.calls")
            self.count("fft.irfft.points", _fft_points(a, n, axis, inverse=True))
            return irfft(a, n, axis, *args, **kwargs)

        fft_module.rfft = counted_rfft
        fft_module.irfft = counted_irfft

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counters": self.counters}, fh)


def layer_metrics(span_lists):
    """Per-name calls, inclusive and self seconds, alloc peaks and errors,
    plus self seconds per layer, summed over several span files.

    A span's self time is its duration minus the durations of the spans
    it directly caused; a name's or layer's self time sums those.
    """
    names, layers = {}, {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, parent, start, end, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, _, start, end, alloc, error) in enumerate(spans):
            self_s = end - start - child_time[idx]
            rec = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "alloc_peak": 0, "errors": {}})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += self_s
            rec["alloc_peak"] = max(rec["alloc_peak"], alloc)
            if error:
                rec["errors"][error] = rec["errors"].get(error, 0) + 1
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
    return names, layers
