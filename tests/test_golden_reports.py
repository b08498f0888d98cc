"""Byte-identity of every exact CLI report.

Each command runs in-process with the report directory pointed at a fresh
temporary directory; its exit code and the SHA-256 of the one report it
writes must match the recorded values.  A refactor of the exact layer that
changes any canonical form, any verdict, or any byte of a report fails here.
The floating-point ``numcheck`` report is left out: its residuals are not
part of the exact contract.

The digests were recorded before the exact term maps and matrices moved
onto shared base classes.  When a report changes on purpose, regenerate them
and record why in CHANGES.md.
"""

import hashlib
import json

import pytest

from galkappa import report
from galkappa.cli import main

# command line -> (exit code, SHA-256 of the report file)
GOLDEN = {
    "algebra verify abelian4": (0, "ce024c9747f27563c50220268e729dfd09043c6ca74395737a9c3ff1bb03a12e"),
    "algebra cohomology abelian4": (0, "9b1d8d428d7fae9bb8fb5cebc1add3931f2198a9cfe9b24e22e0f8df2a2b2829"),
    "algebra verify galilei_1d": (0, "c8c32f90cd53d07c01742e1a7f6a6e0e55a864d15bce137c94276080cea5a12f"),
    "algebra cohomology galilei_1d": (0, "97bcb8cd6e8579f404719850c6b12a309e24df08cfc227aa475dd824c3885e59"),
    "algebra verify galilei_3p1": (0, "50cd7e25b18ab4d7c7436c4ba830191ead6733e19278d6978e8a085ba2ee07f9"),
    "algebra cohomology galilei_3p1": (0, "ecf3273bc157b1e834685c7a78ab9d2334a207661ddf1289429dc44a45303ee4"),
    "algebra verify planar_galilei": (0, "69c555defbd7e6299c67ec84c182929c0004e9f1a7c83936c6c0bef34d3328ad"),
    "algebra cohomology planar_galilei": (0, "96a59831d17c5493506c2acb778194bd7f8f7ca06484a0b54b4bcf5028d7a4fc"),
    "algebra verify planar_galilei_literal": (0, "d3099bd442874d925266e71bd6e1444a95d18213aebdb382cf2eafe7d42dd3fc"),
    "algebra cohomology planar_galilei_literal": (0, "8f86f004090395c357d8a76d2ad38bc1bfcbee886eedf881f0487a58f5cee29c"),
    "algebra verify planar_galilei_mass": (0, "e516af9d9ad4dbf2f8b968cd58037ff7786f026e26a2f94fc30473aa717b7362"),
    "algebra cohomology planar_galilei_mass": (0, "308693934773d56d2fa80aadd23086346fa46793acf00ff810e77e3111dd80db"),
    "algebra verify so3": (0, "5aad9b4b4f5a5226c652571ce86cc61ec671a30c13b574605d09ffe727f6eb3e"),
    "algebra cohomology so3": (0, "f4744d0e1ccf161673d991bddc7d4aa4b9f9f7581f946c672a053e3c9820cb1e"),
    "realize schrodinger --spin-s 1": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s 1 --shift c": (0, "d345d33c665383d2ed80758137f626638645ca93c66d16d264e750d46de48578"),
    "realize schrodinger --spin-s 1 --lambda lam": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s 1 --shift 3/2 --lambda 1/2": (0, "703001bf3cbb74a68f04b63c5476f1c2a3d02b795e5ce2330834aab71bfdc68d"),
    "realize schrodinger --spin-s 1 --strict-literal-table": (1, "3160ef169e84b23a5544c1da334df566c7af1f8d1a91c7cbaed48191b8caf101"),
    "realize schrodinger --spin-s -1": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s -1 --shift c": (0, "d345d33c665383d2ed80758137f626638645ca93c66d16d264e750d46de48578"),
    "realize schrodinger --spin-s -1 --lambda lam": (0, "997ededbb5c86379a8fd99b3ab0641fef260319bdec4afdc23c87e0bbcd470d1"),
    "realize schrodinger --spin-s -1 --shift 3/2 --lambda 1/2": (0, "703001bf3cbb74a68f04b63c5476f1c2a3d02b795e5ce2330834aab71bfdc68d"),
    "realize schrodinger --spin-s -1 --strict-literal-table": (1, "3160ef169e84b23a5544c1da334df566c7af1f8d1a91c7cbaed48191b8caf101"),
    "realize levyleblond --spin-s 1": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s 1 --shift c": (0, "5782295440fe3babefad557396d0fd1de9517bb6b266881f940bcea1838bb8f8"),
    "realize levyleblond --spin-s 1 --lambda lam": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s 1 --shift 3/2 --lambda 1/2": (0, "c809df0c35c55f8966a28cc74b94bed9e208e9e7f79202eb8ff05918203c82a8"),
    "realize levyleblond --spin-s 1 --strict-literal-table": (1, "696eb06fb59c853c228e721e8f1d9765c8d2c8e8f1bc5c71b492d206d690875b"),
    "realize levyleblond --spin-s -1": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s -1 --shift c": (0, "5782295440fe3babefad557396d0fd1de9517bb6b266881f940bcea1838bb8f8"),
    "realize levyleblond --spin-s -1 --lambda lam": (0, "603fc657fe53fa7432a5f943dffd75757144ba0af821b3f63db1decb71f83c8e"),
    "realize levyleblond --spin-s -1 --shift 3/2 --lambda 1/2": (0, "c809df0c35c55f8966a28cc74b94bed9e208e9e7f79202eb8ff05918203c82a8"),
    "realize levyleblond --spin-s -1 --strict-literal-table": (1, "696eb06fb59c853c228e721e8f1d9765c8d2c8e8f1bc5c71b492d206d690875b"),
    "realize multispinor --spin-s 1": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s 1 --shift c": (0, "0168f12fb128dfd3918f365fba075437ecdf8df61998be333d94edf9d4f55809"),
    "realize multispinor --spin-s 1 --lambda lam": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s 1 --shift 3/2 --lambda 1/2": (0, "77fe32c5f92c4ec8fcbe6eff95b51d90b92879477bc3bb4bd08e8fc6a33226c2"),
    "realize multispinor --spin-s 1 --strict-literal-table": (1, "bb8131e22a20c353eff72c7ab286619c4733fae7bd0096c4fc363ebd7e0dcb9f"),
    "realize multispinor --spin-s -1": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s -1 --shift c": (0, "0168f12fb128dfd3918f365fba075437ecdf8df61998be333d94edf9d4f55809"),
    "realize multispinor --spin-s -1 --lambda lam": (0, "24538d164b810137eda88ebd50d1e768966172c81ec32c3374b0c71c2b3464d7"),
    "realize multispinor --spin-s -1 --shift 3/2 --lambda 1/2": (0, "77fe32c5f92c4ec8fcbe6eff95b51d90b92879477bc3bb4bd08e8fc6a33226c2"),
    "realize multispinor --spin-s -1 --strict-literal-table": (1, "bb8131e22a20c353eff72c7ab286619c4733fae7bd0096c4fc363ebd7e0dcb9f"),
    "fieldcheck conservation": (0, "b26b9b9b0f9f4eeccee3d86255516774242892e0ededc3e1d5a5cb3456b17e42"),
    "fieldcheck conservation --variant literal": (1, "e18843f22bdd7c356c84e102083b3e67a30841532a6ed9d06795a24303128f35"),
    "fieldcheck conservation --index 2 --spin-s -1": (0, "d4e7f7f93e0f350f7f36dc197064706b2f4ed30a4280eb4f9d16630f08eea80c"),
    "fieldcheck conservation --variant literal --index 1 --spin-s 1": (1, "93af96f2a1a046b9d9af1942436a75d9c7a25820b2e1588cd6b2945f407f3a74"),
    "fieldcheck boost": (0, "5c7c50087be8716913a4911b9d30fe61f5dafb4bc74382a729068f473769e0b6"),
    "fieldcheck rotation": (0, "eabd168158180968901848a01b7b33dbbdb65c0828268ba583be9b82987d1f8b"),
    "fieldcheck multispinor-eqs --rank 1": (0, "b63d92a5ff83e014ccd605b38e39da1c2d7317c6a9d799b35fbc78e00b1f0d92"),
    "fieldcheck multispinor-eqs --rank 2": (0, "ca22a9192fe2410bf57910e6bd9a505caa04447a10984d03f879638b570e217b"),
    "fieldcheck multispinor-eqs --rank 3": (0, "bfe3efea737f301087097da04f67e490ed98fab13af3261ab7f62ab7e0ca77a6"),
    "fieldcheck multispinor-eqs --rank 4": (0, "6c259557c34ddef1366707bd83f52c7b40afa6bdea2b8c398e7cf5fbe63c1a82"),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_report_is_byte_identical(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    code = main(command.split())
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN[command]


@pytest.mark.parametrize("command", list(GOLDEN))
def test_exit_status_is_the_reports_verdict(command, tmp_path, monkeypatch, capsys):
    """Exit 0 exactly when the report passed, written under its command's name."""
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    code = main(command.split())
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    payload = json.loads(path.read_text())
    assert path.name == payload["command"].replace(" ", "-") + ".json"
    assert (code == 0) == payload["passed"] and code in (0, 1)
