"""The bytes of ``evaluate``'s CSV files for a dataset name that needs quoting."""

from __future__ import annotations

from test_cli import DEFAULT_ROWS, invoke, make_workspace

NAME = 'A,"B'


def test_confusion_and_metrics_table_quote_the_dataset_name(tmp_path):
    # NAME's model replies are all "excluded" (the script default); IVM's are I,E,I,E.
    config = make_workspace(tmp_path, datasets={NAME: DEFAULT_ROWS, "IVM": DEFAULT_ROWS})
    assert invoke(config, "screen").exit_code == 0
    assert invoke(config, "evaluate", "--all").exit_code == 0
    out = tmp_path / "out"
    assert (out / f"{NAME}_confusion.csv").read_bytes() == (
        b'dataset,tp,fn,fp,tn,dropped,n\r\n"A,""B",0,2,0,2,0,4\r\n'
    )
    assert (out / "IVM_confusion.csv").read_bytes() == b"dataset,tp,fn,fp,tn,dropped,n\r\nIVM,1,1,1,1,0,4\r\n"
    assert (out / "metrics_table.csv").read_bytes() == (
        b"Dataset,Accuracy,Sensitivity (Included),Sensitivity (Excluded),Kappa\r\n"
        b'"A,""B",0.500,0.000,1.000,0.00\r\n'
        b"IVM,0.500,0.500,0.500,0.00\r\n"
        b"Total (Weighted Average),0.500,0.250,0.750,-\r\n"
    )
