"""The perturbation report as a document of Fraction pairs run through
`json.dumps(doc, indent=1)`.

`PerturbationReport.to_json` writes the same layout straight from the rows'
integer numerators; tests/test_perturbation.py holds its bytes to this.
"""

import json


def report_json(report):
    def frac(q):
        return [q.numerator, q.denominator]

    doc = {
        "mode": report.mode,
        "depth": report.depth,
        "horizon": report.horizon,
        "index": report.index,
        "threshold": report.threshold,
        "diameter": report.diameter,
        "rows": [{
            "k": r.k,
            "raw": [frac(w) for w in r.raw],
            "residual": frac(r.residual),
            "renormalized": [frac(w) for w in r.renormalized().weights],
        } for r in report.rows],
        "distances": {
            "to_base": [[k, frac(d)] for k, d in report.dist_to_base],
            "to_target": [[k, frac(d)] for k, d in report.dist_to_target],
        },
        "targets": {
            "base": {w: frac(v)
                     for w, v in sorted(report.base_target.as_dict().items())},
            "target": {w: frac(v) for w, v in
                       sorted(report.target_target.as_dict().items())},
        },
    }
    return json.dumps(doc, indent=1)
