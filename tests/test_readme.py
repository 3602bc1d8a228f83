"""The README's library example runs, and its config example parses, against the package as it is."""

import re
from pathlib import Path

from fjfade.config import SECTION_KEYS, parse_config
from fjfade.schedules import SCHEDULE_PARAMS

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)


def test_python_blocks_run(capsys):
    assert blocks("python"), "README has no python code block"
    for code in blocks("python"):
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_ini_blocks_parse_and_name_every_key():
    assert blocks("ini"), "README has no ini code block"
    for text in blocks("ini"):
        parse_config(text)
    words = set(re.findall(r"\w+", "".join(blocks("ini"))))
    names = {*SECTION_KEYS, *(key for keys in SECTION_KEYS.values() for key in keys)}
    names |= {kind.value for kind in SCHEDULE_PARAMS} | {name for params in SCHEDULE_PARAMS.values() for name in params}
    assert names <= words, f"the README's config example does not name {sorted(names - words)}"
