"""Print the sha256 of every output file the shipped configs write.

Runs each config in ``configs/`` at its default seed through ``cli.run``
into a temporary directory and prints ``sha256  config/file`` lines,
sorted by file.  Two trees whose outputs are byte-identical print the same lines.

    python3 tools/output_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bohmsim import cli  # noqa: E402


def main() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.cfg")):
            out = Path(tmp) / path.stem
            cli.run(cli.parse_config_file(str(path)), out_dir=str(out), quiet=True)
            for written in out.iterdir():
                digests[f"{path.stem}/{written.name}"] = hashlib.sha256(written.read_bytes()).hexdigest()
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")


if __name__ == "__main__":
    main()
