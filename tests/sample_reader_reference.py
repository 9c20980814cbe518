"""The audit sample read row by row with ``csv`` and ``float``.

``cli._read_sample`` parses the rows after the header with numpy's C text
reader and reads the file row by row only where numpy's result could
differ.  This is the row-by-row reader it replaces: every file must give
the same sample, or the same error, through both.
"""

import csv

import numpy as np

from tourney import audit
from tourney.cli import ConfigError


def read_sample(path, declared_standard):
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            columns = {name: i for i, name in enumerate(next(rows, []))}
            if "performance" not in columns:
                raise ConfigError("sample CSV needs a 'performance' header column")
            perf, group = columns["performance"], columns.get("group")
            width = max(perf, group or 0) + 1
            obs, labels = [], []
            for row in rows:
                if not row:
                    continue
                if len(row) < width:
                    raise ConfigError(f"sample line {rows.line_num} has {len(row)} of {width} columns")
                try:
                    value = float(row[perf])
                except ValueError as exc:
                    raise ConfigError(f"bad sample value on line {rows.line_num}: {exc}") from exc
                if not -np.inf < value < np.inf:  # NaN fails both comparisons
                    raise ConfigError(f"bad sample value on line {rows.line_num}: {row[perf]!r} is not finite")
                obs.append(value)
                if group is not None:
                    labels.append(row[group])
    except OSError as exc:
        raise ConfigError(f"cannot read sample: {exc}") from exc
    return audit.PerformanceSample(
        observations=tuple(obs),
        declared_standard=declared_standard,
        labels=tuple(labels) if labels else None,
    )
