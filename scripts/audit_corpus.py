"""Re-check the shipped proof corpus and audit every accepted script.

Positive scripts must check clean and survive a soundness audit over a
freshly enumerated model suite; negative scripts must be rejected on the
line and with the reason code promised in their header comment.
"""

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from aml.model import SuiteSpec
from aml.proof import (
    audit_soundness,
    check_proof,
    format_audit,
    format_report,
    parse_proof,
)
from aml.syntax import load_signature

EXPECT = re.compile(r"# expect-reject: (\d+) ([a-z.-]+)")


@dataclass(frozen=True)
class AuditConfig:
    corpus: Path
    max_size: int = 2
    samples: int = 100
    seed: int = 0


def run(cfg: AuditConfig) -> int:
    sig = load_signature(cfg.corpus / "sig.txt")
    spec = SuiteSpec(sig, max_size=cfg.max_size, seed=cfg.seed, samples=cfg.samples)
    suite = spec.suite()
    print(f"suite: {spec.describe()}, {len(suite)} structure(s)")

    bad = 0
    for path in sorted((cfg.corpus / "proofs" / "positive").glob("*.prf")):
        script = parse_proof(path.read_text(), sig)
        rep = check_proof(script)
        if not rep.ok:
            print(f"{path.name}: UNEXPECTED REJECTION")
            print(format_report(rep))
            bad += 1
            continue
        audit = audit_soundness(script, suite, rep)
        mark = "ok" if audit.ok else "VIOLATION"
        print(f"{path.name}: {rep.level}, {audit.lines_audited} line(s), {mark}")
        if not audit.ok:
            print(format_audit(audit))
            bad += 1

    for path in sorted((cfg.corpus / "proofs" / "negative").glob("*.prf")):
        text = path.read_text()
        want = EXPECT.search(text)
        if want is None:
            print(f"{path.name}: missing expect-reject header")
            bad += 1
            continue
        rep = check_proof(parse_proof(text, sig))
        failed = {v.number: v.code for v in rep.verdicts if not v.ok}
        if failed == {int(want.group(1)): want.group(2)}:
            print(f"{path.name}: rejected as promised [{want.group(2)}]")
        else:
            print(f"{path.name}: wrong rejection {failed}, wanted {want.group(0)}")
            bad += 1

    print("corpus clean" if bad == 0 else f"{bad} problem(s)")
    return 0 if bad == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--corpus",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "corpus",
    )
    ap.add_argument("--max-size", type=int, default=2)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    cfg = AuditConfig(args.corpus, args.max_size, args.samples, args.seed)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
