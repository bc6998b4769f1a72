"""Reads a CSV written by ``harness.emit_csv`` back into the
``AggregateResult`` it was written from.  The file name keeps pytest from
collecting it."""
import csv

from perturbed_bandits import harness as hz


def parse_csv(path) -> hz.AggregateResult:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != hz.CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        rows = tuple(
            hz.ResultRow(
                policy=rec[0],
                param=rec[1],
                t=int(rec[2]),
                mean_avg_regret=float(rec[3]),
                stderr=float(rec[4]),
                episodes=int(rec[5]),
                seed=int(rec[6]),
            )
            for rec in reader
        )
    return hz.AggregateResult(rows=rows)
